package proto

// Overload shedding speaks through the protocol as a SERVER_ERROR with a
// recognizable cause, so peers and load generators can tell "the server
// refused this on purpose" from "the server broke". A shed is not a fault:
// cluster clients must not count it against a peer's circuit breaker, and
// clients should back off rather than retry immediately.

// ShedMsg is the message carried by a shed rejection.
const ShedMsg = "busy (shed)"

// AppendShed renders the shed rejection line.
func AppendShed(dst []byte) []byte {
	return AppendStatusMsg(dst, StatusServerError, ShedMsg)
}
