package server

import (
	"bytes"
	"sync/atomic"

	"pamakv/internal/bufpool"
	"pamakv/internal/cluster"
	"pamakv/internal/overload"
	"pamakv/internal/proto"
)

// The peer tier's half of the pipelined batch. While a connection's batch is
// parsed, a command (or one key of a get) owned by a remote peer is not
// executed inline: it is rendered into its owner's pending request buffer and
// leaves a hole at its position in the response. When the parse loop ends,
// every owner gets one pipelined exchange — all its requests in one write,
// all its replies in one in-order read, written to every owner before any
// reply is read — and the replies are spliced into the holes before the
// batch's single flush. An N-deep burst with k remote commands costs at most
// one round trip per owner instead of k.
//
// An exchange is written whole before its first reply is read, so its
// requests must fit the socket buffers: an owner that has seen only part of
// it may already be blocked flushing large replies nobody reads yet, and
// would never take the rest. Past maxExchangeBytes of pending requests an
// owner's exchange takes no more; the batch's exchanges so far are completed
// on the spot and the parse goes on with fresh ones. A request larger than
// the bound therefore travels alone — one write, one reply, as before.
//
// Ordering: replies leave in request order, and commands for one key keep
// their order (a key has one owner, and an owner's requests ride one
// connection in order). Local commands run before the batch's remote ones;
// nothing can observe that, because no key is both local and remote.

// maxExchangeBytes bounds the requests pending in one exchange, well under
// what a peer connection's socket buffers take without the owner reading.
const maxExchangeBytes = 32 << 10

// Kinds of deferred command.
const (
	deferGet = iota
	deferGets
	deferWrite
)

// span is a half-open byte interval of a buffer that may still grow.
type span struct{ off, end int }

// deferredCmd is one forwarded command, or one remote key of a get, awaiting
// its owner's reply.
type deferredCmd struct {
	ex      int    // index of its exchange in connScratch.exchanges
	pos     int    // hole: offset in connScratch.out where the reply belongs
	key     span   // the key, inside the exchange's rendered requests
	h       uint64 // its hash (keyRoute.h), which the hot cache takes
	kind    uint8
	noreply bool

	// Filled from the owner's reply: the bytes this node's client is owed
	// (in connScratch.rep), and for a GET hit where the value lies in them.
	// A plain set with exptime 0 fills val and flags when it is queued —
	// its value, inside the exchange's rendered requests — and sets hit,
	// which the reply keeps only if it is STORED.
	reply, val span
	flags      uint32
	hit, shed  bool
}

// peerExchange is a batch's traffic for one owner.
type peerExchange struct {
	owner string
	cl    *cluster.Client
	req   []byte // the pending requests, rendered back to back
	cmds  []int  // their indexes in connScratch.deferred, in request order
	x     cluster.Exchange
	err   error
}

// exchangeFor returns the index of the batch's exchange with owner that has
// room for need more request bytes, opening it on first use, or -1 when the
// owner has no client (it left the membership between routing and here). If
// the owner's exchange is full, everything queued so far is completed first:
// out, the batch's response up to here, comes back with its holes filled.
func (s *Server) exchangeFor(sc *connScratch, out []byte, owner string, need int) (int, []byte) {
	for i := range sc.exchanges {
		if ex := &sc.exchanges[i]; ex.owner == owner {
			if len(ex.req)+need <= maxExchangeBytes {
				return i, out
			}
			sc.out = out
			s.completeDeferred(sc)
			out = sc.out
			break
		}
	}
	cl := s.peers.ClientFor(owner)
	if cl == nil {
		return -1, out
	}
	n := len(sc.exchanges)
	if n < cap(sc.exchanges) {
		sc.exchanges = sc.exchanges[:n+1]
	} else {
		sc.exchanges = append(sc.exchanges, peerExchange{})
	}
	ex := &sc.exchanges[n]
	*ex = peerExchange{owner: owner, cl: cl, req: ex.req[:0], cmds: ex.cmds[:0]}
	return n, out
}

// push queues d, whose request was just rendered into exchange e.
func (sc *connScratch) push(e int, d deferredCmd) {
	d.ex = e
	sc.exchanges[e].cmds = append(sc.exchanges[e].cmds, len(sc.deferred))
	sc.deferred = append(sc.deferred, d)
}

// deferWrite queues a mutating command for the key's owning peer, to be
// relayed verbatim and answered with the owner's reply. The local hot-cache
// copy (if any) is dropped now, so the batch's later GETs of the key go to
// the owner. When the reply is spliced, a plain set the owner STORED leaves
// its value there and anything else drops the key again, so this node never
// serves a value it knows changed.
func (s *Server) deferWrite(sc *connScratch, out []byte, cmd *proto.Command, r keyRoute) []byte {
	atomic.AddUint64(&s.st.PeerForwards, 1)
	e, out := s.exchangeFor(sc, out, r.owner, len(cmd.Keys[0])+len(cmd.Data))
	// Not before exchangeFor: completing a full exchange may backfill the
	// key's pre-write value from a GET queued earlier in the batch.
	if s.hot != nil {
		s.hot.InvalidateHash(r.h, cmd.Keys[0])
	}
	if e < 0 {
		atomic.AddUint64(&s.st.PeerErrors, 1)
		if cmd.NoReply {
			return out
		}
		atomic.AddUint64(&s.st.ServerErrors, 1)
		return proto.AppendLine(out, "SERVER_ERROR no client for peer "+r.owner)
	}
	// Forward without noreply so the owner's outcome is observable here,
	// then honor the client's noreply on the relay side.
	fwd := *cmd
	fwd.NoReply = false
	ex := &sc.exchanges[e]
	koff := len(ex.req) + len(cmd.Name) + 1 // every write renders as "<verb> <key>..."
	ex.req = proto.AppendCommand(ex.req, &fwd)
	d := deferredCmd{pos: len(out), key: span{koff, koff + len(cmd.Keys[0])}, h: r.h, kind: deferWrite, noreply: cmd.NoReply}
	if cmd.Name == "set" && cmd.Exptime == 0 {
		end := len(ex.req) - 2 // the data block ends the request, before its CRLF
		d.val, d.flags, d.hit = span{end - len(cmd.Data), end}, cmd.Flags, true
	}
	sc.push(e, d)
	return out
}

// deferGet serves one GET key owned by a remote peer (r.owner): from the hot
// cache (plain GETs only) inline, otherwise queued for the owner.
func (s *Server) deferGet(sc *connScratch, out []byte, key string, r keyRoute, withCAS bool) []byte {
	if !withCAS && s.hot != nil {
		val, flags, ok := s.hot.GetHash(r.h, key, sc.val[:0])
		sc.val = val[:0]
		if ok {
			atomic.AddUint64(&s.st.HotHits, 1)
			return proto.AppendValue(out, key, flags, val)
		}
	}
	e, out := s.exchangeFor(sc, out, r.owner, len(key))
	if e < 0 {
		atomic.AddUint64(&s.st.PeerErrors, 1)
		return out
	}
	atomic.AddUint64(&s.st.PeerForwards, 1)
	ex := &sc.exchanges[e]
	verb, kind := "get ", uint8(deferGet)
	if withCAS {
		verb, kind = "gets ", deferGets
	}
	koff := len(ex.req) + len(verb)
	ex.req = append(append(append(ex.req, verb...), key...), '\r', '\n')
	sc.push(e, deferredCmd{pos: len(out), key: span{koff, koff + len(key)}, h: r.h, kind: kind})
	return out
}

// completeDeferred runs the exchanges queued so far and fills sc.out's holes
// with their replies, in place.
func (s *Server) completeDeferred(sc *connScratch) {
	// Every owner's requests are on the wire before any reply is awaited,
	// so the owners serve this batch concurrently.
	for i := range sc.exchanges {
		ex := &sc.exchanges[i]
		atomic.AddUint64(&s.st.PeerExchanges, 1)
		atomic.AddUint64(&s.st.PeerExchangedCmds, uint64(len(ex.cmds)))
		ex.x = ex.cl.Start(ex.req, len(ex.cmds))
	}
	for i := range sc.exchanges {
		ex := &sc.exchanges[i]
		ex.err = ex.x.Finish(func(j int, r *proto.Resp) {
			sc.record(ex, &sc.deferred[ex.cmds[j]], r)
		})
	}
	// Settle the commands in request order, then open the holes back to
	// front: each stretch of inline output moves once, to its final place.
	grow := 0
	for i := range sc.deferred {
		d := &sc.deferred[i]
		s.settle(sc, d)
		grow += d.reply.end - d.reply.off
	}
	end := len(sc.out)
	sc.out = append(sc.out, make([]byte, grow)...)
	w := len(sc.out)
	for i := len(sc.deferred) - 1; i >= 0; i-- {
		d := &sc.deferred[i]
		w -= end - d.pos
		copy(sc.out[w:], sc.out[d.pos:end])
		end = d.pos
		w -= d.reply.end - d.reply.off
		copy(sc.out[w:], sc.rep[d.reply.off:d.reply.end])
	}
	sc.deferred, sc.exchanges, sc.rep = sc.deferred[:0], sc.exchanges[:0], sc.rep[:0]
}

// record keeps what d needs of the owner's reply r, which dies with the
// next reply read: the bytes owed to this node's client, rendered into
// sc.rep. Side effects wait for splice — the exchange may yet fail.
func (sc *connScratch) record(ex *peerExchange, d *deferredCmd, r *proto.Resp) {
	d.shed = r.IsShed()
	switch {
	case d.kind == deferWrite:
		d.hit = d.hit && r.Status == proto.StatusStored
		// The owner's reply relays verbatim, a shed included: the client
		// sees the same signal a local shed would send.
		if !d.noreply {
			off := len(sc.rep)
			sc.rep = proto.AppendResp(sc.rep, r, false)
			d.reply = span{off, len(sc.rep)}
		}
	case !d.shed:
		key := ex.req[d.key.off:d.key.end]
		for i := range r.Values {
			if v := &r.Values[i]; bytes.Equal(v.Key, key) {
				sc.recordValue(d, v)
				break
			}
		}
	}
}

// recordValue renders a GET hit's VALUE block into sc.rep.
func (sc *connScratch) recordValue(d *deferredCmd, v *proto.RValue) {
	off := len(sc.rep)
	sc.rep = proto.AppendRValue(sc.rep, v, d.kind == deferGets)
	end := len(sc.rep)
	d.reply = span{off, end}
	d.val = span{end - 2 - len(v.Data), end - 2}
	d.flags, d.hit = v.Flags, true
}

// settle applies d's side effects — counters, hot-cache invalidation and
// fills — and leaves in d.reply the bytes of sc.rep its client is owed
// (none for a miss or a noreply write). When its exchange failed at transport
// level (breaker open, or an error after the peer client's retries) that is
// the degraded outcome.
func (s *Server) settle(sc *connScratch, d *deferredCmd) {
	ex := &sc.exchanges[d.ex]
	key := ex.req[d.key.off:d.key.end]
	// Hot-cache fills stop under pressure: copying bytes into the
	// mini-cache is work the strained node can skip.
	fill := s.hot != nil && s.overloadTier() < overload.TierStrained
	if d.kind == deferWrite {
		switch {
		case fill && ex.err == nil && d.hit:
			// The owner stored exactly these bytes: keep them, so the
			// next read of the key need not cross the hop.
			s.hot.PutHash(d.h, string(key), d.flags, ex.req[d.val.off:d.val.end])
		case s.hot != nil:
			// Again, now that the owner has answered: a GET on another
			// connection may have read the old value from the owner and
			// backfilled it after the invalidation at queue time.
			s.hot.InvalidateHash(d.h, string(key))
		}
		if ex.err != nil {
			// A write must not silently apply to a non-authoritative copy.
			atomic.AddUint64(&s.st.PeerErrors, 1)
			d.reply = span{}
			if !d.noreply {
				atomic.AddUint64(&s.st.ServerErrors, 1)
				off := len(sc.rep)
				sc.rep = proto.AppendLine(sc.rep, "SERVER_ERROR peer "+ex.owner+" unavailable")
				d.reply = span{off, len(sc.rep)}
			}
			return
		}
		if d.shed {
			atomic.AddUint64(&s.st.PeerSheds, 1)
		}
		return
	}
	backfill := d.kind == deferGet && fill
	if ex.err != nil {
		atomic.AddUint64(&s.st.PeerErrors, 1)
		d.reply = span{}
		if s.opts.Backend == nil {
			return
		}
		// Peer unreachable: regenerate locally rather than miss (the value
		// is correct, only the single-owner fill discipline is bent, and
		// the owner still never learns a wrong copy). The reply carries CAS
		// 0 for gets — a degraded token must not win a cas race against the
		// owner's copy.
		skey := string(key)
		_, _, body, owned, ferr := s.fetchBackend(skey)
		if ferr != nil {
			return
		}
		defer bufpool.Put(owned) // the reply and the hot cache copy body
		atomic.AddUint64(&s.st.PeerFallbacks, 1)
		off := len(sc.rep)
		if d.kind == deferGets {
			sc.rep = proto.AppendValueCAS(sc.rep, skey, 0, body, 0)
		} else {
			sc.rep = proto.AppendValue(sc.rep, skey, 0, body)
			if backfill {
				s.hot.PutHash(d.h, skey, 0, body)
			}
		}
		d.reply = span{off, len(sc.rep)}
		return
	}
	switch {
	case d.shed:
		// The owner refused under overload. Treat it as a miss and do NOT
		// regenerate from the local backend — that would amplify exactly
		// the load the owner just shed.
		atomic.AddUint64(&s.st.PeerSheds, 1)
	case d.hit:
		atomic.AddUint64(&s.st.PeerHits, 1)
		if backfill {
			s.hot.PutHash(d.h, string(key), d.flags, sc.rep[d.val.off:d.val.end])
		}
	}
	// Neither: an authoritative miss from the owner.
}
