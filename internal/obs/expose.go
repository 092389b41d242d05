package obs

// A counter is declared once: on the field of the stats struct that carries
// it, in struct tags beside the json one.
//
//	prom:"pamakv_xs_total"     the series name on /metrics; ",sparse" after it
//	                           leaves zero-valued labelled samples out
//	help:"..."                 its HELP text
//	label:"class,sub"          the label per dimension of a slice, array,
//	                           matrix or map field (indices, map keys)
//	stat:"cmd_get"             the name in the in-band `stats` reply when it is
//	                           not the series name less pamakv_ and _total;
//	                           stat:"-" keeps the field out of `stats`
//	merge:"max" | "keep"       how Sum folds the field, when not by adding
//
// The type is worked out, not declared: a name ending in _total is a counter,
// a HistSnapshot a histogram, anything else a gauge. Everything below walks
// those tags by reflection and belongs to the reporting paths, where
// encoding/json walks the same structs for /statsz.

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"unsafe"
)

var histType = reflect.TypeOf(HistSnapshot{})

// Struct renders every prom-tagged field of the struct v, embedded structs
// included, in declaration order.
func (p *PromWriter) Struct(v any) {
	rv := reflect.ValueOf(v)
	p.rows(rv.Type(), []string{""}, func(int) reflect.Value { return rv })
}

// Rows renders a slice of structs transposed — per tagged field one header,
// then one sample per row labelled label="names[i]" — because the exposition
// format wants a family's samples together.
func (p *PromWriter) Rows(label string, names []string, rows any) {
	labels := make([]string, len(names))
	for i, n := range names {
		labels[i] = label + `="` + n + `"`
	}
	rv := reflect.ValueOf(rows)
	p.rows(rv.Type().Elem(), labels, rv.Index)
}

func (p *PromWriter) rows(t reflect.Type, labels []string, row func(int) reflect.Value) {
	for _, f := range reflect.VisibleFields(t) {
		name, opts, _ := strings.Cut(f.Tag.Get("prom"), ",")
		if name == "" {
			continue
		}
		typ := "gauge"
		switch {
		case f.Type == histType:
			typ = "histogram"
		case strings.HasSuffix(name, "_total"):
			typ = "counter"
		}
		p.Header(name, f.Tag.Get("help"), typ)
		axes := strings.Split(f.Tag.Get("label"), ",")
		for i, l := range labels {
			p.sample(name, l, axes, opts == "sparse", row(i).FieldByIndex(f.Index))
		}
	}
}

// sample writes v under name: a number as one sample, a histogram as its
// series, a slice, array or string-keyed map as one sample per element under
// the next label of axes.
func (p *PromWriter) sample(name, labels string, axes []string, sparse bool, v reflect.Value) {
	with := func(value string) string {
		l := axes[0] + `="` + value + `"`
		if labels != "" {
			l = labels + "," + l
		}
		return l
	}
	switch v.Kind() {
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			p.sample(name, with(strconv.Itoa(i)), axes[1:], sparse, v.Index(i))
		}
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
		for _, k := range keys {
			p.sample(name, with(k.String()), axes[1:], sparse, v.MapIndex(k))
		}
	case reflect.Struct:
		p.Histogram(name, labels, v.Interface().(HistSnapshot))
	default:
		if x := number(v); x != 0 || !sparse {
			p.Value(name, labels, x)
		}
	}
}

func number(v reflect.Value) float64 {
	switch {
	case v.Kind() == reflect.Bool:
		if v.Bool() {
			return 1
		}
		return 0
	case v.CanInt():
		return float64(v.Int())
	case v.CanUint():
		return float64(v.Uint())
	}
	return v.Float()
}

// AppendStats appends one "STAT name value" line of the memcached text
// protocol per number among the tagged fields of the struct v.
func AppendStats(out []byte, v any) []byte {
	rv := reflect.ValueOf(v)
	for _, f := range reflect.VisibleFields(rv.Type()) {
		name := f.Tag.Get("stat")
		if name == "" {
			name, _, _ = strings.Cut(f.Tag.Get("prom"), ",")
			name = strings.TrimSuffix(strings.TrimPrefix(name, "pamakv_"), "_total")
		}
		fv := rv.FieldByIndex(f.Index)
		if name == "" || name == "-" || !(fv.CanInt() || fv.CanUint() || fv.CanFloat()) {
			continue
		}
		out = fmt.Appendf(out, "STAT %s %v\r\n", name, fv.Interface())
	}
	return out
}

// Sum folds the struct src into *dst field by field, the fan-in of per-shard
// snapshots: numbers add (merge:"max" keeps the larger), bools or, slices and
// matrices add element-wise where they overlap, nested structs and pointers
// set on both sides recurse, histograms merge; strings, maps and merge:"keep"
// fields stay dst's.
func Sum(dst, src any) { sum(reflect.ValueOf(dst).Elem(), reflect.ValueOf(src), "") }

func sum(d, s reflect.Value, mode string) {
	switch {
	case d.Type() == histType:
		_ = d.Addr().Interface().(*HistSnapshot).Merge(s.Interface().(HistSnapshot))
	case d.Kind() == reflect.Struct:
		for i := 0; i < d.NumField(); i++ {
			if m := d.Type().Field(i).Tag.Get("merge"); m != "keep" {
				sum(d.Field(i), s.Field(i), m)
			}
		}
	case d.Kind() == reflect.Pointer:
		if !d.IsNil() && !s.IsNil() {
			sum(d.Elem(), s.Elem(), mode)
		}
	case d.Kind() == reflect.Slice || d.Kind() == reflect.Array:
		for i := 0; i < min(d.Len(), s.Len()); i++ {
			sum(d.Index(i), s.Index(i), mode)
		}
	case d.Kind() == reflect.Bool:
		d.SetBool(d.Bool() || s.Bool())
	case d.CanInt():
		d.SetInt(fold(d.Int(), s.Int(), mode))
	case d.CanUint():
		d.SetUint(fold(d.Uint(), s.Uint(), mode))
	case d.CanFloat():
		d.SetFloat(fold(d.Float(), s.Float(), mode))
	}
}

// Load copies a live counter set, each counter read with one atomic load.
// A live set is a struct of uint64s (in nested structs and arrays too, so
// the snapshot structs can embed it) that the hot path bumps with
// atomic.AddUint64; allocated on its own (new), every field is 64-bit
// aligned on every platform. Any other kind of field panics.
func Load[T any](live *T) T {
	var out T
	load(reflect.ValueOf(&out).Elem(), reflect.ValueOf(live).Elem())
	return out
}

func load(d, s reflect.Value) {
	switch s.Kind() {
	case reflect.Struct:
		for i := 0; i < s.NumField(); i++ {
			load(d.Field(i), s.Field(i))
		}
	case reflect.Array:
		for i := 0; i < s.Len(); i++ {
			load(d.Index(i), s.Index(i))
		}
	case reflect.Uint64:
		// Through the address, so unexported counters load too.
		*(*uint64)(unsafe.Pointer(d.UnsafeAddr())) = atomic.LoadUint64((*uint64)(unsafe.Pointer(s.UnsafeAddr())))
	default:
		panic("obs: live counter set holds a " + s.Type().String())
	}
}

func fold[T int64 | uint64 | float64](a, b T, mode string) T {
	if mode == "max" {
		return max(a, b)
	}
	return a + b
}
