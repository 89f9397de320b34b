package cliflags

import (
	"flag"
	"io"
	"reflect"
	"testing"
	"time"

	"degradable/internal/wire"
)

func TestSharedFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	addr := Addr(fs, "addr", "127.0.0.1:7001")
	PProf(fs)
	Shards(fs)
	Trace(fs)
	get := WireTimeouts(fs)
	if err := fs.Parse([]string{"-read-timeout", "2s", "-idle-timeout", "1m"}); err != nil {
		t.Fatal(err)
	}
	if *addr != "127.0.0.1:7001" {
		t.Errorf("addr default = %q", *addr)
	}
	if got := get(); got != (wire.Timeouts{Read: 2 * time.Second, Idle: time.Minute}) {
		t.Errorf("timeouts = %+v", got)
	}
	want := []string{"addr", "idle-timeout", "pprof", "read-timeout", "shards", "trace", "write-timeout"}
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) })
	if !reflect.DeepEqual(got, want) {
		t.Errorf("flags = %v, want %v", got, want)
	}
}

func TestServePProf(t *testing.T) {
	closer, bound, err := ServePProf("")
	if closer != nil || bound != "" || err != nil {
		t.Errorf("empty addr: closer=%t bound=%q err=%v", closer != nil, bound, err)
	}
	closer, bound, err = ServePProf("127.0.0.1:0")
	if err != nil || closer == nil || bound == "" {
		t.Fatalf("bind: closer=%t bound=%q err=%v", closer != nil, bound, err)
	}
	if err := closer(); err != nil {
		t.Errorf("close: %v", err)
	}
	if _, _, err := ServePProf("not-an-address"); err == nil {
		t.Error("bad address accepted")
	}
}
