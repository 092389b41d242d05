package client

import "pamakv/internal/proto"

// op is one keyed operation, single or queued on a pipeline. value aliases
// the caller's slice until the op is rendered; num doubles as the CAS token
// and the incr/decr delta.
type op struct {
	verb    proto.Verb
	key     string
	value   []byte
	flags   uint32
	exptime int64
	num     uint64
}

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

// render appends the op's request to dst.
func (o *op) render(dst []byte) []byte {
	keys := [1]string{o.key}
	return proto.AppendCommand(dst, &proto.Command{
		Verb: o.verb, Keys: keys[:], Flags: o.flags, Exptime: o.exptime,
		CasID: o.num, Delta: o.num, Data: o.value,
	})
}

// replyErr gives the verdict of one reply to an operation with the given
// verb: nil when the operation did what it says (a get then carries its
// value, an incr/decr its number), a sentinel for the outcomes the protocol
// names, a *ReplyError for anything else.
func replyErr(v proto.Verb, r *proto.Resp) error {
	done := proto.StatusStored
	switch v {
	case proto.VerbGet, proto.VerbGets:
		switch {
		case r.Status != proto.StatusEnd:
			return respErr(r)
		case len(r.Values) == 0:
			return ErrCacheMiss
		}
		return nil
	case proto.VerbDelete:
		done = proto.StatusDeleted
	case proto.VerbIncr, proto.VerbDecr:
		done = proto.StatusNumber
	case proto.VerbTouch:
		done = proto.StatusTouched
	}
	store := v.Stores()
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
