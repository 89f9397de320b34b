package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"strings"
	"testing"

	"degradable/internal/adversary"
	"degradable/internal/service"
	"degradable/internal/types"
)

func TestRequestRoundTrip(t *testing.T) {
	reqs := []service.Request{
		{N: 5, M: 1, U: 2, Value: 42},
		{N: 7, M: 2, U: 2, Sender: 3, Value: -1, Faults: []adversary.FaultSpec{
			{Node: 0, Kind: adversary.KindLie, Value: 99, Seed: 0},
			{Node: 6, Kind: adversary.KindRandom, Value: -7, Seed: 123456789},
		}},
		{N: 64, M: 0, U: 63, Value: types.Default},
	}
	for i, req := range reqs {
		buf, err := AppendRequest(nil, uint64(i)+7, req)
		if err != nil {
			t.Fatalf("req %d: encode: %v", i, err)
		}
		payload, err := ReadFrame(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("req %d: read frame: %v", i, err)
		}
		id, got, err := DecodeRequest(payload)
		if err != nil {
			t.Fatalf("req %d: decode: %v", i, err)
		}
		if id != uint64(i)+7 {
			t.Errorf("req %d: id %d, want %d", i, id, i+7)
		}
		if !reflect.DeepEqual(got, req) {
			t.Errorf("req %d: round-trip mismatch:\n got %+v\nwant %+v", i, got, req)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	resps := []service.Response{
		{Decisions: []types.Value{7, 7, 7, 7, 7}, Condition: "D.1", OK: true},
		{Decisions: []types.Value{types.Default, 5, 5}, Condition: "D.3",
			Degraded: true, Checked: true, OK: true, Graceful: true},
		{Decisions: []types.Value{-9}, Condition: "none"},
		{Decisions: []types.Value{7, 9, 7}, Condition: "D.2", Checked: true,
			Reason: "D.2: 2 distinct decisions {7×2, 9×1}"},
	}
	for i, resp := range resps {
		buf, err := AppendResponse(nil, 99, StatusOK, resp, "")
		if err != nil {
			t.Fatalf("resp %d: encode: %v", i, err)
		}
		payload, err := ReadFrame(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("resp %d: read frame: %v", i, err)
		}
		id, st, got, errmsg, err := DecodeResponse(payload)
		if err != nil {
			t.Fatalf("resp %d: decode: %v", i, err)
		}
		if id != 99 || st != StatusOK || errmsg != "" {
			t.Errorf("resp %d: id=%d st=%v errmsg=%q", i, id, st, errmsg)
		}
		if !reflect.DeepEqual(got, resp) {
			t.Errorf("resp %d: round-trip mismatch:\n got %+v\nwant %+v", i, got, resp)
		}
	}
}

// TestResponseReasonBounds checks the text fields' edges: a reason or an
// error message longer than a frame holds is cut to fit MaxFrame, and a
// reason flag with an empty or overlong string is rejected, so a decoded
// response re-encodes exactly.
func TestResponseReasonBounds(t *testing.T) {
	long := strings.Repeat("x", MaxFrame)
	for _, st := range []Status{StatusOK, StatusError} {
		resp := service.Response{Decisions: []types.Value{1}, Condition: "D.2", Checked: true, Reason: long}
		buf, err := AppendTaggedResponse(nil, 1, Tag{Tenant: 1}, st, resp, long)
		if err != nil {
			t.Fatal(err)
		}
		payload, err := ReadFrame(bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("%v: a response with long text is not a frame: %v", st, err)
		}
		_, _, _, _, got, errmsg, err := DecodeAnyResponse(payload)
		if err != nil || len(payload) != MaxFrame || !strings.HasPrefix(long, got.Reason+errmsg) {
			t.Fatalf("%v: %d-byte payload, %d-byte reason, %d-byte message, %v",
				st, len(payload), len(got.Reason), len(errmsg), err)
		}
	}
	short, _ := AppendResponse(nil, 1, StatusOK, service.Response{Condition: "D.2", Reason: "r"}, "")
	empty := append(append([]byte{}, short[4:len(short)-3]...), 0, 0)
	if _, _, _, _, err := DecodeResponse(empty); err == nil {
		t.Error("an empty flagged reason decoded")
	}
	if _, _, _, _, err := DecodeResponse(append(short[4:len(short)-1:len(short)-1], 'r', 'r')); err == nil {
		t.Error("a reason longer than its prefix decoded")
	}
}

func TestErrorResponseRoundTrip(t *testing.T) {
	buf, err := AppendResponse(nil, 4, StatusOverloaded, service.Response{}, "shard queue full")
	if err != nil {
		t.Fatal(err)
	}
	payload, err := ReadFrame(bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	id, st, _, errmsg, err := DecodeResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if id != 4 || st != StatusOverloaded || errmsg != "shard queue full" {
		t.Fatalf("got id=%d st=%v errmsg=%q", id, st, errmsg)
	}
}

func TestEncodeRejects(t *testing.T) {
	if _, err := AppendRequest(nil, 1, service.Request{N: 300, M: 1, U: 2}); err == nil {
		t.Error("N=300 encoded")
	}
	if _, err := AppendRequest(nil, 1, service.Request{N: 5, M: 1, U: 2, Sender: -1}); err == nil {
		t.Error("negative sender encoded")
	}
	if _, err := AppendResponse(nil, 1, StatusOK, service.Response{Condition: "D.9"}, ""); err == nil {
		t.Error("unknown condition encoded")
	}
}

func TestReadFrameRejects(t *testing.T) {
	// Undersized length prefix.
	var tiny [4]byte
	binary.BigEndian.PutUint32(tiny[:], 3)
	if _, err := ReadFrame(bytes.NewReader(tiny[:])); err == nil {
		t.Error("3-byte frame accepted")
	}
	// Oversized length prefix.
	var huge [4]byte
	binary.BigEndian.PutUint32(huge[:], MaxFrame+1)
	if _, err := ReadFrame(bytes.NewReader(huge[:])); err == nil {
		t.Error("oversized frame accepted")
	}
	// Truncated payload must be ErrUnexpectedEOF, not clean EOF.
	buf, _ := AppendRequest(nil, 1, service.Request{N: 5, M: 1, U: 2, Value: 1})
	if _, err := ReadFrame(bytes.NewReader(buf[:len(buf)-2])); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated payload: %v, want ErrUnexpectedEOF", err)
	}
	// Clean boundary EOF stays io.EOF.
	if _, err := ReadFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("empty stream: %v, want io.EOF", err)
	}
}

// TestReadFrameInto verifies the buffer-reuse contract: a sufficient buffer
// is reused in place, an insufficient one is replaced, and a read loop
// feeding the previous payload back in stops allocating.
func TestReadFrameInto(t *testing.T) {
	small, _ := AppendRequest(nil, 1, service.Request{N: 5, M: 1, U: 2, Value: 1})
	big, _ := AppendRequest(nil, 2, service.Request{N: 7, M: 2, U: 2, Value: 9,
		Faults: []adversary.FaultSpec{{Node: 1, Kind: adversary.KindLie, Value: 3}}})

	// Growing: nil buffer allocates, then the bigger frame replaces it.
	r := bytes.NewReader(append(append([]byte(nil), small...), big...))
	p1, err := ReadFrameInto(r, nil)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := ReadFrameInto(r, p1)
	if err != nil {
		t.Fatal(err)
	}
	if len(p2) != len(big)-4 {
		t.Fatalf("second frame: %d bytes, want %d", len(p2), len(big)-4)
	}
	if _, req, err := DecodeRequest(p2); err != nil || len(req.Faults) != 1 {
		t.Fatalf("second frame decode: %v, faults %v", err, req.Faults)
	}

	// Shrinking: a roomy buffer must be reused, not reallocated.
	roomy := make([]byte, 0, MaxFrame)
	p3, err := ReadFrameInto(bytes.NewReader(small), roomy)
	if err != nil {
		t.Fatal(err)
	}
	if &p3[0] != &roomy[:1][0] {
		t.Error("sufficient buffer was not reused")
	}

	// A steady-state read loop over identical frames is allocation-free.
	var stream []byte
	for i := 0; i < 8; i++ {
		stream = append(stream, small...)
	}
	buf := make([]byte, 0, len(small))
	sr := bytes.NewReader(stream)
	allocs := testing.AllocsPerRun(50, func() {
		sr.Reset(stream)
		for {
			p, err := ReadFrameInto(sr, buf)
			if err != nil {
				break
			}
			buf = p
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state read loop allocates %.1f times per run, want 0", allocs)
	}
}

func TestDecodeRejects(t *testing.T) {
	good, _ := AppendRequest(nil, 1, service.Request{N: 5, M: 1, U: 2, Value: 1,
		Faults: []adversary.FaultSpec{{Node: 1, Kind: adversary.KindLie, Value: 2}}})
	payload := good[4:] // strip length prefix

	bad := append([]byte{}, payload...)
	bad[0] = 9 // wrong version
	if _, _, err := DecodeRequest(bad); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("bad version: %v", err)
	}
	bad = append([]byte{}, payload...)
	bad[1] = TypeResponse // wrong type
	if _, _, err := DecodeRequest(bad); err == nil {
		t.Error("wrong frame type decoded")
	}
	if _, _, err := DecodeRequest(payload[:len(payload)-1]); err == nil {
		t.Error("truncated fault list decoded")
	}
	if _, _, err := DecodeRequest(payload[:12]); err == nil {
		t.Error("truncated body decoded")
	}
	if _, _, _, _, err := DecodeResponse(payload); err == nil {
		t.Error("request payload decoded as response")
	}
}
