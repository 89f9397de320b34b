package eig

import (
	"fmt"
	"testing"

	"degradable/internal/types"
	"degradable/internal/vote"
)

// benchShapes are the tree geometries the benchmarks sweep. N=7 m=1
// (depth 2) is the canonical BYZ(t, 1) shape of the paper's running
// example; the deeper shapes show how the costs grow with the universe.
var benchShapes = []struct {
	n, depth, m int
}{
	{7, 2, 1},
	{10, 3, 2},
	{13, 4, 3},
}

// benchTree builds one shape for a benchmark and returns it with its
// valid paths.
func benchTree(b *testing.B, n, depth int) (*Tree, []types.Path) {
	b.Helper()
	tr, err := New(n, depth, 0)
	if err != nil {
		b.Fatal(err)
	}
	return tr, enumeratePaths(tr)
}

func shapeName(n, depth int) string { return fmt.Sprintf("n%d_d%d", n, depth) }

// BenchmarkSetResolve measures the full per-instance hot path of one
// receiver: Reset the pooled tree, Set every valid path, then Resolve
// with the paper's VOTE rule. This is exactly what each node complement
// does per agreement instance in the serving runtime.
func BenchmarkSetResolve(b *testing.B) {
	for _, shape := range benchShapes {
		tr, paths := benchTree(b, shape.n, shape.depth)
		m := shape.m
		rule := RuleFunc(func(nSub int, vals []types.Value) types.Value {
			return vote.Vote(nSub-1-m, vals)
		})
		b.Run(shapeName(shape.n, shape.depth), func(b *testing.B) {
			b.ReportAllocs()
			var sink types.Value
			for i := 0; i < b.N; i++ {
				tr.Reset()
				for j, p := range paths {
					_ = tr.Set(p, types.Value(j%3))
				}
				sink = tr.Resolve(1, rule)
			}
			_ = sink
		})
	}
}

// BenchmarkResolve isolates the bottom-up sweep on a pre-populated tree.
func BenchmarkResolve(b *testing.B) {
	for _, shape := range benchShapes {
		tr, paths := benchTree(b, shape.n, shape.depth)
		m := shape.m
		rule := RuleFunc(func(nSub int, vals []types.Value) types.Value {
			return vote.Vote(nSub-1-m, vals)
		})
		for j, p := range paths {
			_ = tr.Set(p, types.Value(j%3))
		}
		b.Run(shapeName(shape.n, shape.depth), func(b *testing.B) {
			b.ReportAllocs()
			var sink types.Value
			for i := 0; i < b.N; i++ {
				sink = tr.Resolve(1, rule)
			}
			_ = sink
		})
	}
}

// BenchmarkSet isolates path validation + storage for a single write of
// the deepest path, the worst case for ranking.
func BenchmarkSet(b *testing.B) {
	for _, shape := range benchShapes {
		tr, paths := benchTree(b, shape.n, shape.depth)
		p := paths[len(paths)-1]
		b.Run(shapeName(shape.n, shape.depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i&1023 == 0 {
					tr.Reset() // keep first-write-wins from short-circuiting every Set
				}
				_ = tr.Set(p, 2)
			}
		})
	}
}

// BenchmarkGet isolates a read of the deepest path.
func BenchmarkGet(b *testing.B) {
	for _, shape := range benchShapes {
		tr, paths := benchTree(b, shape.n, shape.depth)
		p := paths[len(paths)-1]
		_ = tr.Set(p, 2)
		b.Run(shapeName(shape.n, shape.depth), func(b *testing.B) {
			b.ReportAllocs()
			var sink types.Value
			for i := 0; i < b.N; i++ {
				sink = tr.Get(p)
			}
			_ = sink
		})
	}
}
