package proto

import "strconv"

// Client-side request rendering: the inverse of Parser.ReadCommand, used by
// the cluster peer client and the forwarding path to re-emit a parsed
// command on another connection. Responses have a matching encoder,
// AppendResp, so a node can relay a peer's reply verbatim.

// AppendCommand renders cmd to its wire form, appending to dst. NoReply is
// honored for the commands that accept it; Data supplies storage commands'
// data-block bytes (the Bytes field is ignored — the block length is
// len(Data)).
func AppendCommand(dst []byte, cmd *Command) []byte {
	dst = append(dst, verbNames[cmd.Verb]...)
	switch cmd.Verb {
	case VerbGet, VerbGets:
		for _, k := range cmd.Keys {
			dst = append(dst, ' ')
			dst = append(dst, k...)
		}
		return append(dst, '\r', '\n')
	case VerbSet, VerbAdd, VerbReplace, VerbAppend, VerbPrepend, VerbCAS:
		dst = append(dst, ' ')
		dst = append(dst, cmd.Keys[0]...)
		dst = append(dst, ' ')
		dst = strconv.AppendUint(dst, uint64(cmd.Flags), 10)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, cmd.Exptime, 10)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, int64(len(cmd.Data)), 10)
		if cmd.Verb == VerbCAS {
			dst = append(dst, ' ')
			dst = strconv.AppendUint(dst, cmd.CasID, 10)
		}
		dst = appendNoReply(dst, cmd.NoReply)
		dst = append(dst, '\r', '\n')
		dst = append(dst, cmd.Data...)
		return append(dst, '\r', '\n')
	case VerbDelete:
		dst = append(dst, ' ')
		dst = append(dst, cmd.Keys[0]...)
		dst = appendNoReply(dst, cmd.NoReply)
		return append(dst, '\r', '\n')
	case VerbTouch:
		dst = append(dst, ' ')
		dst = append(dst, cmd.Keys[0]...)
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, cmd.Exptime, 10)
		dst = appendNoReply(dst, cmd.NoReply)
		return append(dst, '\r', '\n')
	case VerbIncr, VerbDecr:
		dst = append(dst, ' ')
		dst = append(dst, cmd.Keys[0]...)
		dst = append(dst, ' ')
		dst = strconv.AppendUint(dst, cmd.Delta, 10)
		dst = appendNoReply(dst, cmd.NoReply)
		return append(dst, '\r', '\n')
	default:
		// stats, flush_all, version, quit: the bare verb.
		return append(dst, '\r', '\n')
	}
}

func appendNoReply(dst []byte, noreply bool) []byte {
	if noreply {
		dst = append(dst, " noreply"...)
	}
	return dst
}

// AppendRValue renders one VALUE block of a parsed reply. withCAS controls
// whether the block carries its CAS token (a gets relay keeps it; a get relay
// must not add one).
func AppendRValue(dst []byte, v *RValue, withCAS bool) []byte {
	return append(append(AppendValueHeader(dst, v.Key, v.Flags, len(v.Data), withCAS, v.CAS), v.Data...), '\r', '\n')
}

// AppendResp renders r back to its wire form, appending to dst — what a
// relaying node emits to its own client after RespReader parsed the owner's
// reply. It copies out of r, so dst stays valid after the reader's next Next.
func AppendResp(dst []byte, r *Resp, withCAS bool) []byte {
	for i := range r.Values {
		dst = AppendRValue(dst, &r.Values[i], withCAS)
	}
	for _, st := range r.Stats {
		dst = append(dst, "STAT "...)
		dst = append(dst, st[0]...)
		dst = append(dst, ' ')
		dst = append(dst, st[1]...)
		dst = append(dst, '\r', '\n')
	}
	switch r.Status {
	case StatusNumber:
		return AppendNumberLine(dst, r.Number)
	case StatusClientError, StatusServerError, StatusVersion:
		return AppendStatusMsg(dst, r.Status, r.Msg)
	default:
		return AppendStatus(dst, r.Status)
	}
}
