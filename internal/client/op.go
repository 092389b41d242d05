package client

import (
	"strconv"

	"pamakv/internal/proto"
)

// opcode identifies a keyed operation.
type opcode uint8

const (
	opGet opcode = iota
	opGets
	opSet
	opAdd
	opReplace
	opAppend
	opPrepend
	opCAS
	opDelete
	opIncr
	opDecr
	opTouch
)

var opVerbs = [...]string{
	opGet: "get", opGets: "gets", opSet: "set", opAdd: "add",
	opReplace: "replace", opAppend: "append", opPrepend: "prepend",
	opCAS: "cas", opDelete: "delete", opIncr: "incr", opDecr: "decr",
	opTouch: "touch",
}

// op is one keyed operation, single or queued on a pipeline. value aliases
// the caller's slice until the op is rendered; num doubles as the CAS token
// and the incr/decr delta.
type op struct {
	code    opcode
	key     string
	value   []byte
	flags   uint32
	exptime int64
	num     uint64
}

// isStore reports whether the operation carries a data block.
func (c opcode) isStore() bool { return c >= opSet && c <= opCAS }

// check refuses, before anything is rendered, an op that would desynchronize
// its connection or that the server must reject.
func (o *op) check() error {
	if err := proto.CheckKey(o.key); err != nil {
		return err
	}
	if len(o.value) > proto.MaxDataLen {
		return ErrValueTooLarge
	}
	return nil
}

// appendOp renders one operation to its wire form.
func appendOp(dst []byte, o *op) []byte {
	dst = append(dst, opVerbs[o.code]...)
	dst = append(dst, ' ')
	dst = append(dst, o.key...)
	switch {
	case o.code.isStore():
		dst = append(dst, ' ')
		dst = strconv.AppendUint(dst, uint64(o.flags), 10)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, o.exptime, 10)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, int64(len(o.value)), 10)
		if o.code == opCAS {
			dst = append(dst, ' ')
			dst = strconv.AppendUint(dst, o.num, 10)
		}
		dst = append(dst, '\r', '\n')
		dst = append(dst, o.value...)
	case o.code == opIncr, o.code == opDecr:
		dst = append(dst, ' ')
		dst = strconv.AppendUint(dst, o.num, 10)
	case o.code == opTouch:
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, o.exptime, 10)
	}
	return append(dst, '\r', '\n')
}

// replyErr gives the verdict of one reply to an operation of the given kind:
// nil when the operation did what it says (a get then carries its value, an
// incr/decr its number), a sentinel for the outcomes the protocol names, a
// *ReplyError for anything else.
func replyErr(code opcode, r *proto.Resp) error {
	done := proto.StatusStored
	switch code {
	case opGet, opGets:
		switch {
		case r.Status != proto.StatusEnd:
			return respErr(r)
		case len(r.Values) == 0:
			return ErrCacheMiss
		}
		return nil
	case opDelete:
		done = proto.StatusDeleted
	case opIncr, opDecr:
		done = proto.StatusNumber
	case opTouch:
		done = proto.StatusTouched
	}
	store := code.isStore()
	switch {
	case r.Status == done:
		return nil
	case r.Status == proto.StatusNotFound:
		return ErrCacheMiss
	case store && r.Status == proto.StatusNotStored:
		return ErrNotStored
	case store && r.Status == proto.StatusExists:
		return ErrCASConflict
	}
	return respErr(r)
}

// respErr maps a reply no sentinel covers to a client error. Shed responses
// map to ErrServerBusy so backoff logic can single out overload.
func respErr(r *proto.Resp) error {
	if r.IsShed() {
		return ErrServerBusy
	}
	return &ReplyError{Status: r.Status, Msg: string(r.Msg)}
}
