package wire

import (
	"bytes"
	"runtime"
	"testing"

	"degradable/internal/adversary"
	"degradable/internal/service"
	"degradable/internal/types"
)

// The decoders read frames a peer controls. Each fuzz target holds one of
// them to three rules: it never panics, it allocates no more than a small
// multiple of the frame's length, and a frame it accepts is exactly what
// the matching encoder writes for the decoded value.

// decodeAllocBound is the most a decoder may allocate for a payload of n
// bytes. The widest decoded form is a round batch's: a 10-byte message
// becomes a types.Message of 56 bytes plus its path.
func decodeAllocBound(n int) uint64 { return 16*uint64(n) + 1024 }

// allocated returns the heap bytes decode allocates.
func allocated(decode func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	decode()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// leastAllocated is the least of up to three allocated counts, stopping at
// the first within limit: the count is process-wide, so a single run over
// it may have taken in what another goroutine (the fuzzing engine's, the
// test runner's) allocated.
func leastAllocated(limit uint64, decode func()) uint64 {
	got := allocated(decode)
	for retry := 0; got > limit && retry < 2; retry++ {
		got = min(got, allocated(decode))
	}
	return got
}

// checkAlloc fails the test when decode allocates past the bound on each
// of three runs.
func checkAlloc(t *testing.T, payload []byte, decode func()) {
	t.Helper()
	limit := decodeAllocBound(len(payload))
	if got := leastAllocated(limit, decode); got > limit {
		t.Fatalf("decoding %d bytes allocated %d, bound %d", len(payload), got, limit)
	}
}

// payloadOf strips a frame's length prefix.
func payloadOf(frame []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return frame[4:]
}

var fuzzRequests = []service.Request{
	{N: 5, M: 1, U: 2, Value: 7},
	{N: 11, M: 3, U: 4, Sender: 10, Value: -3, Faults: []adversary.FaultSpec{
		{Node: 2, Kind: adversary.KindTwoFaced, Value: 99, Seed: 5},
		{Node: 10, Kind: adversary.KindRandom, Value: 1, Seed: -8}}},
}

// roundTrip checks that an accepted request re-encodes to its payload, or
// that the encoder refuses only a request the service would refuse too.
func roundTrip(t *testing.T, payload []byte, req service.Request, encode func(service.Request) ([]byte, error)) {
	t.Helper()
	frame, err := encode(req)
	if err != nil {
		if req.Validate() == nil {
			t.Fatalf("valid decoded request %+v does not encode: %v", req, err)
		}
		return
	}
	if !bytes.Equal(frame[4:], payload) {
		t.Fatalf("re-encoded request differs:\n got %x\nwant %x", frame[4:], payload)
	}
}

func FuzzDecodeRequest(f *testing.F) {
	for i, req := range fuzzRequests {
		f.Add(payloadOf(AppendRequest(nil, uint64(i), req)))
	}
	n1 := bytes.Clone(payloadOf(AppendRequest(nil, 0, fuzzRequests[0])))
	n1[10] = 1 // N=1 decodes; the encoder and Validate refuse it
	f.Add(n1)
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) > MaxFrame {
			return // ReadFrame refuses it first
		}
		var (
			id  uint64
			req service.Request
			err error
		)
		checkAlloc(t, payload, func() { id, req, err = DecodeRequest(payload) })
		if err != nil {
			return
		}
		roundTrip(t, payload, req, func(r service.Request) ([]byte, error) { return AppendRequest(nil, id, r) })
	})
}

// FuzzDecodeTaggedRequest drives the server's and the router's decoder,
// which takes plain and tagged requests alike.
func FuzzDecodeTaggedRequest(f *testing.F) {
	for i, req := range fuzzRequests {
		f.Add(payloadOf(AppendTaggedRequest(nil, uint64(i), Tag{Tenant: 9, Corr: uint32(i)}, req)))
		f.Add(payloadOf(AppendRequest(nil, uint64(i), req)))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) > MaxFrame {
			return
		}
		var (
			id     uint64
			tag    Tag
			tagged bool
			req    service.Request
			err    error
		)
		checkAlloc(t, payload, func() { id, tag, tagged, req, _, err = DecodeAnyRequestInto(payload, nil) })
		if err != nil {
			return
		}
		if req.Tenant != tag.Tenant {
			t.Fatalf("tenant %d, tag %+v", req.Tenant, tag)
		}
		roundTrip(t, payload, req, func(r service.Request) ([]byte, error) {
			if tagged {
				return AppendTaggedRequest(nil, id, tag, r)
			}
			return AppendRequest(nil, id, r)
		})
	})
}

// FuzzDecodeResponse drives the client's and the router's decoder.
func FuzzDecodeResponse(f *testing.F) {
	ok := service.Response{Decisions: []types.Value{7, 7, types.Default}, Condition: "D.3", Degraded: true, Checked: true, OK: true}
	f.Add(payloadOf(AppendResponse(nil, 1, StatusOK, ok, "")))
	f.Add(payloadOf(AppendTaggedResponse(nil, 2, Tag{Tenant: 3, Corr: 4}, StatusOK, ok, "")))
	f.Add(payloadOf(AppendResponse(nil, 3, StatusOverloaded, service.Response{}, "shard queue full")))
	f.Add(payloadOf(AppendTaggedResponse(nil, 4, Tag{Tenant: 1}, StatusQuota, service.Response{}, "")))
	violated := service.Response{Decisions: []types.Value{7, 9}, Condition: "D.2", Checked: true,
		Reason: "D.2: 2 distinct decisions {7×1, 9×1}"}
	f.Add(payloadOf(AppendResponse(nil, 5, StatusOK, violated, "")))
	f.Add(payloadOf(AppendTaggedResponse(nil, 6, Tag{Tenant: 2, Corr: 8}, StatusOK, violated, "")))
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) > MaxFrame {
			return
		}
		var (
			id     uint64
			tag    Tag
			tagged bool
			st     Status
			resp   service.Response
			errmsg string
			err    error
		)
		checkAlloc(t, payload, func() { id, tag, tagged, st, resp, errmsg, err = DecodeAnyResponse(payload) })
		if err != nil {
			return
		}
		var frame []byte
		if tagged {
			frame, err = AppendTaggedResponse(nil, id, tag, st, resp, errmsg)
		} else {
			frame, err = AppendResponse(nil, id, st, resp, errmsg)
		}
		if err != nil {
			t.Fatalf("decoded response does not encode: %v", err)
		}
		if !bytes.Equal(frame[4:], payload) {
			t.Fatalf("re-encoded response differs:\n got %x\nwant %x", frame[4:], payload)
		}
	})
}

// overstatedBatch is a 13-byte round batch whose count claims 65 535
// messages.
var overstatedBatch = []byte{Version, TypeRoundBatch, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0xFF, 0xFF}

// FuzzDecodeRoundBatch drives the cluster mesh's decoder. The encoder flags
// its one chunk last, so a re-encoded non-last chunk differs in that bit
// only.
func FuzzDecodeRoundBatch(f *testing.F) {
	msgs := []types.Message{
		{To: 1, Value: 5},
		{To: 2, Path: types.Path{0, 3}, Value: -1},
	}
	f.Add(payloadOf(AppendRoundBatch(nil, 2, msgs)))
	f.Add(payloadOf(AppendRoundBatch(nil, 1, nil)))
	f.Add(overstatedBatch)
	f.Fuzz(func(t *testing.T, payload []byte) {
		if len(payload) > MaxFrame {
			return
		}
		var (
			round int
			got   []types.Message
			err   error
		)
		checkAlloc(t, payload, func() { round, got, _, err = DecodeRoundBatch(payload) })
		if err != nil {
			return
		}
		frame, err := AppendRoundBatch(nil, round, got)
		if err != nil {
			t.Fatalf("decoded batch does not encode: %v", err)
		}
		want := bytes.Clone(payload)
		want[10] = batchLast
		if !bytes.Equal(frame[4:], want) {
			t.Fatalf("re-encoded batch differs:\n got %x\nwant %x", frame[4:], want)
		}
	})
}

// TestDecodeRoundBatchOverstatedCount pins the count check: a frame too
// short for the messages it announces is refused before anything is sized
// from the count.
func TestDecodeRoundBatchOverstatedCount(t *testing.T) {
	var err error
	if got := leastAllocated(1023, func() { _, _, _, err = DecodeRoundBatch(overstatedBatch) }); got >= 1024 {
		t.Errorf("decoding a 13-byte batch allocated %d bytes, want under 1 kB", got)
	}
	if err == nil {
		t.Fatal("13-byte batch announcing 65 535 messages accepted")
	}
}
