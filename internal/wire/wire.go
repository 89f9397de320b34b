// Package wire is the minimal length-prefixed binary codec for the
// agreement service's request/response frames.
//
// Every frame is a 4-byte big-endian payload length followed by the
// payload. Payloads open with a version byte and a frame-type byte, then a
// caller-chosen 8-byte request ID that the service echoes back, so clients
// can pipeline requests over one connection and demultiplex responses.
//
//	request  := ver type id n m u sender value nf fault*
//	fault    := node kind value seed
//	response := ver type id status (ok-body | errmsg)
//	ok-body  := condition flags ndec value* [reason]
//	errmsg   := len(uint16) bytes
//	reason   := len(uint16) bytes   (non-empty; only with the reason flag)
//
// Tagged frames (types 3 and 4) carry an 8-byte routing tag — a 4-byte
// tenant ID and a 4-byte correlation value — between the request ID and
// the body; the body encoding is otherwise identical. The fleet router
// uses tags to bill admission per tenant and to multiplex many client
// connections onto a few pipelined backend connections; servers echo the
// tag of a tagged request back verbatim on its response.
//
//	tagged-request  := ver type id tenant corr <request body>
//	tagged-response := ver type id tenant corr <response body>
//
// All multi-byte integers are big-endian; n, m, u, sender, node, kind,
// condition, ndec, status, and flags are single bytes (the node-set limit
// caps N at 64, far below the byte ceiling); tenant and corr are 4 bytes;
// agreement values and seeds are 8 bytes.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"

	"degradable/internal/adversary"
	"degradable/internal/service"
	"degradable/internal/types"
)

// Version is the protocol version this package speaks.
const Version = 1

// MaxFrame bounds the accepted payload size: a response carrying 255
// decisions fits in well under 4 KiB, so anything near the bound is either
// corruption or abuse.
const MaxFrame = 1 << 16

// Frame types.
const (
	// TypeRequest frames a service.Request.
	TypeRequest = 1
	// TypeResponse frames a service.Response or an error status.
	TypeResponse = 2
	// TypeTaggedRequest frames a service.Request preceded by a routing Tag.
	TypeTaggedRequest = 3
	// TypeTaggedResponse frames a response preceded by the echoed Tag.
	TypeTaggedResponse = 4
)

// Tag is the per-frame routing metadata carried by tagged frames. Tenant
// bills the request to an admission-control tenant (0 = untenanted); Corr
// is an opaque correlation value the server echoes back verbatim — the
// router stamps it with the client-connection identity so a multiplexed
// response can be proven to route back to the connection that sent it.
type Tag struct {
	Tenant uint32
	Corr   uint32
}

// Status codes carried by response frames.
type Status uint8

// Response statuses.
const (
	// StatusOK carries a full response body.
	StatusOK Status = 0
	// StatusOverloaded reports admission rejection (retryable).
	StatusOverloaded Status = 1
	// StatusClosed reports a shutting-down server.
	StatusClosed Status = 2
	// StatusInvalid reports a request that failed validation.
	StatusInvalid Status = 3
	// StatusError reports an internal execution error.
	StatusError Status = 4
	// StatusQuota reports a per-tenant admission-control shed: the tenant's
	// token bucket is empty (RESOURCE_EXHAUSTED). Distinct from
	// StatusOverloaded, which reports a full server queue regardless of
	// tenant; both are retryable, but only quota sheds are the client's own
	// doing.
	StatusQuota Status = 5
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusOverloaded:
		return "overloaded"
	case StatusClosed:
		return "closed"
	case StatusInvalid:
		return "invalid"
	case StatusError:
		return "error"
	case StatusQuota:
		return "resource_exhausted"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// Response flag bits.
const (
	flagDegraded = 1 << iota
	flagChecked
	flagOK
	flagGraceful
	flagReason // a length-prefixed Response.Reason follows the decisions
)

// Condition codes (byte form of the paper condition names).
var condCodes = map[string]uint8{"none": 0, "D.1": 1, "D.2": 2, "D.3": 3, "D.4": 4}
var condNames = [...]string{"none", "D.1", "D.2", "D.3", "D.4"}

// AppendRequest appends a request frame (length prefix included) to buf.
func AppendRequest(buf []byte, id uint64, req service.Request) ([]byte, error) {
	return appendRequest(buf, id, TypeRequest, Tag{}, req)
}

// AppendTaggedRequest appends a tagged request frame carrying tag.
func AppendTaggedRequest(buf []byte, id uint64, tag Tag, req service.Request) ([]byte, error) {
	return appendRequest(buf, id, TypeTaggedRequest, tag, req)
}

func appendRequest(buf []byte, id uint64, typ uint8, tag Tag, req service.Request) ([]byte, error) {
	if req.N < 2 || req.N > 255 || req.M < 0 || req.M > 255 || req.U < 0 || req.U > 255 {
		return nil, fmt.Errorf("wire: parameters out of byte range: N=%d M=%d U=%d", req.N, req.M, req.U)
	}
	if req.Sender < 0 || req.Sender > 255 {
		return nil, fmt.Errorf("wire: sender %d out of byte range", int(req.Sender))
	}
	if len(req.Faults) > 255 {
		return nil, fmt.Errorf("wire: %d faults exceed the frame limit", len(req.Faults))
	}
	body := 2 + 8 + 4 + 8 + 1 + len(req.Faults)*18
	if typ == TypeTaggedRequest {
		body += 8
	}
	buf = appendHeader(buf, body, typ, id)
	if typ == TypeTaggedRequest {
		buf = appendTag(buf, tag)
	}
	buf = append(buf, byte(req.N), byte(req.M), byte(req.U), byte(req.Sender))
	buf = binary.BigEndian.AppendUint64(buf, uint64(req.Value))
	buf = append(buf, byte(len(req.Faults)))
	for _, f := range req.Faults {
		if f.Node < 0 || f.Node > 255 {
			return nil, fmt.Errorf("wire: faulty node %d out of byte range", int(f.Node))
		}
		if f.Kind < 0 || int(f.Kind) > 255 {
			return nil, fmt.Errorf("wire: fault kind %d out of byte range", int(f.Kind))
		}
		buf = append(buf, byte(f.Node), byte(f.Kind))
		buf = binary.BigEndian.AppendUint64(buf, uint64(f.Value))
		buf = binary.BigEndian.AppendUint64(buf, uint64(f.Seed))
	}
	return buf, nil
}

// AppendResponse appends a response frame to buf. For StatusOK the response
// body is encoded; for every other status errmsg is carried instead.
func AppendResponse(buf []byte, id uint64, st Status, resp service.Response, errmsg string) ([]byte, error) {
	return appendResponse(buf, id, TypeResponse, Tag{}, st, resp, errmsg)
}

// AppendTaggedResponse appends a tagged response frame echoing tag.
func AppendTaggedResponse(buf []byte, id uint64, tag Tag, st Status, resp service.Response, errmsg string) ([]byte, error) {
	return appendResponse(buf, id, TypeTaggedResponse, tag, st, resp, errmsg)
}

func appendResponse(buf []byte, id uint64, typ uint8, tag Tag, st Status, resp service.Response, errmsg string) ([]byte, error) {
	tagLen := 0
	if typ == TypeTaggedResponse {
		tagLen = 8
	}
	if st != StatusOK {
		body := 2 + 8 + tagLen + 1 + 2
		if room := MaxFrame - body; len(errmsg) > room {
			errmsg = errmsg[:room] // the frame stays within what a reader accepts
		}
		body += len(errmsg)
		buf = appendHeader(buf, body, typ, id)
		if tagLen > 0 {
			buf = appendTag(buf, tag)
		}
		buf = append(buf, byte(st))
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(errmsg)))
		return append(buf, errmsg...), nil
	}
	code, ok := condCodes[resp.Condition]
	if !ok {
		return nil, fmt.Errorf("wire: unknown condition %q", resp.Condition)
	}
	if len(resp.Decisions) > 255 {
		return nil, fmt.Errorf("wire: %d decisions exceed the frame limit", len(resp.Decisions))
	}
	var flags uint8
	if resp.Degraded {
		flags |= flagDegraded
	}
	if resp.Checked {
		flags |= flagChecked
	}
	if resp.OK {
		flags |= flagOK
	}
	if resp.Graceful {
		flags |= flagGraceful
	}
	body := 2 + 8 + tagLen + 1 + 1 + 1 + 1 + len(resp.Decisions)*8
	reason := resp.Reason
	if reason != "" {
		flags |= flagReason
		if room := MaxFrame - body - 2; len(reason) > room {
			reason = reason[:room] // the frame stays within what a reader accepts
		}
		body += 2 + len(reason)
	}
	buf = appendHeader(buf, body, typ, id)
	if tagLen > 0 {
		buf = appendTag(buf, tag)
	}
	buf = append(buf, byte(st), code, flags, byte(len(resp.Decisions)))
	for _, d := range resp.Decisions {
		buf = binary.BigEndian.AppendUint64(buf, uint64(d))
	}
	if reason != "" {
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(reason)))
		buf = append(buf, reason...)
	}
	return buf, nil
}

// appendHeader appends the length prefix, version, type, and ID.
func appendHeader(buf []byte, body int, typ uint8, id uint64) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(body))
	buf = append(buf, Version, typ)
	return binary.BigEndian.AppendUint64(buf, id)
}

// appendTag appends the 8-byte routing tag of a tagged frame.
func appendTag(buf []byte, tag Tag) []byte {
	buf = binary.BigEndian.AppendUint32(buf, tag.Tenant)
	return binary.BigEndian.AppendUint32(buf, tag.Corr)
}

// ReadFrame reads one length-prefixed payload from r. It returns io.EOF
// cleanly only when the stream ends on a frame boundary. Each call
// allocates a fresh payload; read loops should prefer ReadFrameInto.
func ReadFrame(r io.Reader) ([]byte, error) {
	return ReadFrameInto(r, nil)
}

// ReadFrameInto is ReadFrame with a caller-supplied buffer: the payload is
// read into buf when its capacity suffices, and a larger buffer is
// allocated otherwise. The returned slice is valid until the next call
// that reuses buf; both Decode functions copy everything they retain, so a
// read loop can pass the previous return value back in and amortize the
// per-frame allocation away entirely.
func ReadFrameInto(r io.Reader, buf []byte) ([]byte, error) {
	n, buf, err := readPrefix(r, buf)
	if err != nil {
		return nil, err
	}
	return readPayload(r, buf, n)
}

// readPrefix reads and validates the 4-byte length prefix, returning the
// payload length and the (possibly grown) reuse buffer. Split from
// readPayload so the server can move its read deadline between the idle
// wait (before a frame begins) and the frame read (once it has).
func readPrefix(r io.Reader, buf []byte) (uint32, []byte, error) {
	// The length prefix is read into the (possibly grown) reuse buffer: a
	// stack array would escape through the io.Reader interface and cost an
	// allocation per frame — the very thing this path exists to remove.
	if cap(buf) < 4 {
		buf = make([]byte, 4)
	}
	lenBuf := buf[:4]
	if _, err := io.ReadFull(r, lenBuf); err != nil {
		return 0, buf, err
	}
	n := binary.BigEndian.Uint32(lenBuf)
	if n < 10 {
		return 0, buf, fmt.Errorf("wire: frame of %d bytes below the 10-byte header", n)
	}
	if n > MaxFrame {
		return 0, buf, fmt.Errorf("wire: frame of %d bytes exceeds the %d limit", n, MaxFrame)
	}
	return n, buf, nil
}

// readPayload reads the n-byte payload following a validated prefix.
func readPayload(r io.Reader, buf []byte, n uint32) ([]byte, error) {
	var payload []byte
	if int(n) <= cap(buf) {
		payload = buf[:n]
	} else {
		payload = make([]byte, n)
	}
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return payload, nil
}

// header decodes and validates the common payload prefix.
func header(payload []byte, wantType uint8) (id uint64, rest []byte, err error) {
	if len(payload) < 10 {
		return 0, nil, fmt.Errorf("wire: truncated header (%d bytes)", len(payload))
	}
	if payload[0] != Version {
		return 0, nil, fmt.Errorf("wire: version %d, want %d", payload[0], Version)
	}
	if payload[1] != wantType {
		return 0, nil, fmt.Errorf("wire: frame type %d, want %d", payload[1], wantType)
	}
	return binary.BigEndian.Uint64(payload[2:10]), payload[10:], nil
}

// headerAny decodes the common prefix of a frame that may be plain or
// tagged, returning the tag when present.
func headerAny(payload []byte, plainType, taggedType uint8) (id uint64, tag Tag, tagged bool, rest []byte, err error) {
	if len(payload) < 10 {
		return 0, tag, false, nil, fmt.Errorf("wire: truncated header (%d bytes)", len(payload))
	}
	if payload[0] != Version {
		return 0, tag, false, nil, fmt.Errorf("wire: version %d, want %d", payload[0], Version)
	}
	id = binary.BigEndian.Uint64(payload[2:10])
	switch payload[1] {
	case plainType:
		return id, tag, false, payload[10:], nil
	case taggedType:
		if len(payload) < 18 {
			return 0, tag, false, nil, fmt.Errorf("wire: truncated tag (%d bytes)", len(payload))
		}
		tag.Tenant = binary.BigEndian.Uint32(payload[10:14])
		tag.Corr = binary.BigEndian.Uint32(payload[14:18])
		return id, tag, true, payload[18:], nil
	default:
		return 0, tag, false, nil, fmt.Errorf("wire: frame type %d, want %d or %d", payload[1], plainType, taggedType)
	}
}

// DecodeRequest decodes a request payload (as returned by ReadFrame).
func DecodeRequest(payload []byte) (id uint64, req service.Request, err error) {
	id, b, err := header(payload, TypeRequest)
	if err != nil {
		return 0, req, err
	}
	req, _, err = decodeRequestBody(b, nil)
	return id, req, err
}

// DecodeAnyRequest decodes a request payload of either frame type. For
// tagged requests req.Tenant carries the tag's tenant so admission
// accounting flows through the service untouched.
func DecodeAnyRequest(payload []byte) (id uint64, tag Tag, tagged bool, req service.Request, err error) {
	id, tag, tagged, req, _, err = DecodeAnyRequestInto(payload, nil)
	return id, tag, tagged, req, err
}

// DecodeAnyRequestInto is DecodeAnyRequest with a caller-supplied fault
// buffer: the fault list is decoded into buf when its capacity suffices
// (a larger buffer is allocated otherwise), and the possibly-grown buffer
// is returned for the next call. req.Faults aliases it, so the request is
// only valid until the buffer is reused — callers that retain the request
// past the next decode must copy the faults first (service.Slot.Submit
// already does). With a warm buffer the request read path performs zero
// allocations per frame.
func DecodeAnyRequestInto(payload []byte, buf []adversary.FaultSpec) (id uint64, tag Tag, tagged bool, req service.Request, faultBuf []adversary.FaultSpec, err error) {
	id, tag, tagged, b, err := headerAny(payload, TypeRequest, TypeTaggedRequest)
	if err != nil {
		return 0, tag, false, req, buf, err
	}
	req, buf, err = decodeRequestBody(b, buf)
	req.Tenant = tag.Tenant
	return id, tag, tagged, req, buf, err
}

func decodeRequestBody(b []byte, buf []adversary.FaultSpec) (req service.Request, _ []adversary.FaultSpec, err error) {
	if len(b) < 13 {
		return req, buf, fmt.Errorf("wire: truncated request body (%d bytes)", len(b))
	}
	req.N = int(b[0])
	req.M = int(b[1])
	req.U = int(b[2])
	req.Sender = types.NodeID(b[3])
	req.Value = types.Value(binary.BigEndian.Uint64(b[4:12]))
	nf := int(b[12])
	b = b[13:]
	if len(b) != nf*18 {
		return req, buf, fmt.Errorf("wire: %d fault bytes, want %d", len(b), nf*18)
	}
	if nf > 0 {
		if cap(buf) < nf {
			buf = make([]adversary.FaultSpec, nf)
		}
		buf = buf[:nf]
		for i := 0; i < nf; i++ {
			f := b[i*18 : (i+1)*18]
			buf[i] = adversary.FaultSpec{
				Node:  types.NodeID(f[0]),
				Kind:  adversary.Kind(f[1]),
				Value: types.Value(binary.BigEndian.Uint64(f[2:10])),
				Seed:  int64(binary.BigEndian.Uint64(f[10:18])),
			}
		}
		req.Faults = buf
	}
	return req, buf, nil
}

// DecodeResponse decodes a response payload (as returned by ReadFrame).
// errmsg is populated for non-OK statuses.
func DecodeResponse(payload []byte) (id uint64, st Status, resp service.Response, errmsg string, err error) {
	id, b, err := header(payload, TypeResponse)
	if err != nil {
		return 0, 0, resp, "", err
	}
	st, resp, errmsg, err = decodeResponseBody(b)
	return id, st, resp, errmsg, err
}

// DecodeAnyResponse decodes a response payload of either frame type,
// returning the echoed tag when the frame is tagged.
func DecodeAnyResponse(payload []byte) (id uint64, tag Tag, tagged bool, st Status, resp service.Response, errmsg string, err error) {
	id, tag, tagged, b, err := headerAny(payload, TypeResponse, TypeTaggedResponse)
	if err != nil {
		return 0, tag, false, 0, resp, "", err
	}
	st, resp, errmsg, err = decodeResponseBody(b)
	return id, tag, tagged, st, resp, errmsg, err
}

func decodeResponseBody(b []byte) (st Status, resp service.Response, errmsg string, err error) {
	if len(b) < 1 {
		return 0, resp, "", fmt.Errorf("wire: empty response body")
	}
	st = Status(b[0])
	b = b[1:]
	if st != StatusOK {
		if len(b) < 2 {
			return st, resp, "", fmt.Errorf("wire: truncated error message")
		}
		n := int(binary.BigEndian.Uint16(b[:2]))
		if len(b) != 2+n {
			return st, resp, "", fmt.Errorf("wire: error message of %d bytes, want %d", len(b)-2, n)
		}
		return st, resp, string(b[2:]), nil
	}
	if len(b) < 3 {
		return st, resp, "", fmt.Errorf("wire: truncated response body (%d bytes)", len(b))
	}
	code, flags, ndec := b[0], b[1], int(b[2])
	if int(code) >= len(condNames) {
		return st, resp, "", fmt.Errorf("wire: unknown condition code %d", code)
	}
	if flags&^(flagDegraded|flagChecked|flagOK|flagGraceful|flagReason) != 0 {
		return st, resp, "", fmt.Errorf("wire: unknown response flags %#x", flags)
	}
	resp.Condition = condNames[code]
	resp.Degraded = flags&flagDegraded != 0
	resp.Checked = flags&flagChecked != 0
	resp.OK = flags&flagOK != 0
	resp.Graceful = flags&flagGraceful != 0
	b = b[3:]
	if len(b) < ndec*8 || flags&flagReason == 0 && len(b) != ndec*8 {
		return st, resp, "", fmt.Errorf("wire: %d decision bytes, want %d", len(b), ndec*8)
	}
	if ndec > 0 {
		resp.Decisions = make([]types.Value, ndec)
		for i := range resp.Decisions {
			resp.Decisions[i] = types.Value(binary.BigEndian.Uint64(b[i*8 : (i+1)*8]))
		}
	}
	if b = b[ndec*8:]; flags&flagReason != 0 {
		if len(b) < 2 {
			return st, resp, "", fmt.Errorf("wire: truncated reason")
		}
		n := int(binary.BigEndian.Uint16(b[:2]))
		if n == 0 || len(b) != 2+n {
			return st, resp, "", fmt.Errorf("wire: reason of %d bytes, want %d (non-empty)", len(b)-2, n)
		}
		resp.Reason = string(b[2:])
	}
	return st, resp, "", nil
}
