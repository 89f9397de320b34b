package chaos

import (
	"reflect"
	"testing"

	"degradable/internal/adversary"
)

// TestParseFaults is the one table for the node:kind[:value][:seed] fault
// grammar that degradable cluster and degradable degrade read.
func TestParseFaults(t *testing.T) {
	tests := []struct {
		name string
		in   string
		want []FaultSpec // nil for the empty string and for every bad input
		bad  bool
	}{
		{name: "empty", in: ""},
		{name: "single silent", in: "3:silent", want: []FaultSpec{{Node: 3, Kind: adversary.KindSilent}}},
		{name: "lie with value", in: "3:lie:99", want: []FaultSpec{{Node: 3, Kind: adversary.KindLie, Value: 99}}},
		{name: "random with seed", in: "3:random:99:7",
			want: []FaultSpec{{Node: 3, Kind: adversary.KindRandom, Value: 99, Seed: 7}}},
		{name: "multiple", in: "3:lie:99,4:silent,0:twofaced:7", want: []FaultSpec{
			{Node: 3, Kind: adversary.KindLie, Value: 99},
			{Node: 4, Kind: adversary.KindSilent},
			{Node: 0, Kind: adversary.KindTwoFaced, Value: 7},
		}},
		{name: "crash", in: "2:crash", want: []FaultSpec{{Node: 2, Kind: adversary.KindCrash}}},
		{name: "values", in: "3:lie:99,0:random:5:42", want: []FaultSpec{
			{Node: 3, Kind: adversary.KindLie, Value: 99},
			{Node: 0, Kind: adversary.KindRandom, Value: 5, Seed: 42},
		}},
		{name: "cluster example", in: "2:twofaced:999,4:silent,1:random:0:42", want: []FaultSpec{
			{Node: 2, Kind: adversary.KindTwoFaced, Value: 999},
			{Node: 4, Kind: adversary.KindSilent},
			{Node: 1, Kind: adversary.KindRandom, Seed: 42},
		}},
		{name: "missing kind", in: "3", bad: true},
		{name: "bad node", in: "x:silent", bad: true},
		{name: "bad kind", in: "3:explode", bad: true},
		{name: "bad kind nope", in: "2:nope", bad: true},
		{name: "bad value", in: "3:lie:x", bad: true},
		{name: "bad seed", in: "3:random:9:x", bad: true},
		{name: "bad seed zero value", in: "2:random:0:x", bad: true},
		{name: "bad second entry", in: "3:silent,4", bad: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := ParseFaults(tt.in)
			if (err != nil) != tt.bad {
				t.Fatalf("ParseFaults(%q) err = %v, want error %v", tt.in, err, tt.bad)
			}
			if !reflect.DeepEqual(got, tt.want) {
				t.Errorf("ParseFaults(%q) = %+v, want %+v", tt.in, got, tt.want)
			}
		})
	}
}
