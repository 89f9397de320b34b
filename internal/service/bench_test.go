package service

import (
	"context"
	"testing"

	"degradable/internal/adversary"
)

// BenchmarkDo measures the one-shot submit→decide→respond path for the
// acceptance shape (N=7, m=1, u=2), fault-free: decided at submission, so
// no shard is involved. The per-op time bounds the closed-loop throughput
// one in-flight worker can sustain.
func BenchmarkDo(b *testing.B) {
	svc := New(Config{})
	defer svc.Close()
	ctx := context.Background()
	req := Request{N: 7, M: 1, U: 2, Value: 42}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Do(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDoFaulty is the same path with one two-faced fault armed: the
// strategy rebuild per request is part of the cost.
func BenchmarkDoFaulty(b *testing.B) {
	svc := New(Config{})
	defer svc.Close()
	ctx := context.Background()
	req := Request{N: 7, M: 1, U: 2, Value: 42,
		Faults: []adversary.FaultSpec{{Node: 3, Kind: adversary.KindTwoFaced, Value: 99}}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := svc.Do(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDoSpecEveryInstance prices the sampling spec-check by running it
// on every instance rather than every eighth.
func BenchmarkDoSpecEveryInstance(b *testing.B) {
	svc := New(Config{SpecSample: 1})
	defer svc.Close()
	ctx := context.Background()
	req := Request{N: 7, M: 1, U: 2, Value: 42}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := svc.Do(ctx, req)
		if err != nil {
			b.Fatal(err)
		}
		if !resp.OK {
			b.Fatal(resp.Reason)
		}
	}
}

// BenchmarkSlotDoFast is the zero-alloc hot loop: a reusable Slot driving
// fault-free requests, decided at submission.
func BenchmarkSlotDoFast(b *testing.B) {
	svc := New(Config{Shards: 1, SpecSample: -1})
	defer svc.Close()
	ctx := context.Background()
	sl := svc.NewSlot()
	req := Request{N: 7, M: 1, U: 2, Value: 42}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sl.Do(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSlotDoSenderProbe prices the sender-only fast path: one armed
// crash fault on the sender, decided by probing its round-1 egress.
func BenchmarkSlotDoSenderProbe(b *testing.B) {
	svc := New(Config{Shards: 1, SpecSample: -1})
	defer svc.Close()
	ctx := context.Background()
	sl := svc.NewSlot()
	req := Request{N: 7, M: 1, U: 2, Value: 42,
		Faults: []adversary.FaultSpec{{Node: 0, Kind: adversary.KindCrash}}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sl.Do(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSlotDoFallback prices the pooled full path the fast path falls
// back to: one non-sender two-faced fault forces the complete EIG exchange
// on the recycled engine. "shallow" is the acceptance shape (42 messages);
// "deep" is the benchmark's serve_deep shape (N=11 m=3 u=4), whose depth-4
// exchange is 8 190 messages, so the engine's cost per message is what it
// measures.
func BenchmarkSlotDoFallback(b *testing.B) {
	for _, tc := range []struct {
		name string
		req  Request
	}{
		{"shallow", Request{N: 7, M: 1, U: 2, Value: 42,
			Faults: []adversary.FaultSpec{{Node: 3, Kind: adversary.KindTwoFaced, Value: 99}}}},
		{"deep", Request{N: 11, M: 3, U: 4, Value: 42,
			Faults: []adversary.FaultSpec{{Node: 3, Kind: adversary.KindTwoFaced, Value: 99}}}},
		{"deep_lie", Request{N: 11, M: 3, U: 4, Value: 42,
			Faults: []adversary.FaultSpec{{Node: 3, Kind: adversary.KindLie, Value: 99}}}},
		{"deep_random", Request{N: 11, M: 3, U: 4, Value: 42,
			Faults: []adversary.FaultSpec{{Node: 3, Kind: adversary.KindRandom, Value: 99, Seed: 7}}}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			svc := New(Config{Shards: 1, SpecSample: -1})
			defer svc.Close()
			ctx := context.Background()
			sl := svc.NewSlot()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sl.Do(ctx, tc.req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDoPipelined keeps a window of requests in flight through Submit,
// letting the shard batch instead of ping-ponging one request at a time.
// The sender is armed silent, so every request queues and the shard's
// sender probe decides it.
func BenchmarkDoPipelined(b *testing.B) {
	svc := New(Config{QueueDepth: 4096})
	defer svc.Close()
	req := Request{N: 7, M: 1, U: 2, Value: 42,
		Faults: []adversary.FaultSpec{{Node: 0, Kind: adversary.KindSilent}}}
	const window = 64
	pending := make([]<-chan Outcome, 0, window)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done, err := svc.Submit(req)
		if err != nil {
			b.Fatal(err)
		}
		pending = append(pending, done)
		if len(pending) == window {
			for _, ch := range pending {
				if out := <-ch; out.Err != nil {
					b.Fatal(out.Err)
				}
			}
			pending = pending[:0]
		}
	}
	for _, ch := range pending {
		if out := <-ch; out.Err != nil {
			b.Fatal(out.Err)
		}
	}
}
