package workload

import (
	"math"
	"testing"
)

// sliceGen replays a fixed arrival sequence.
type sliceGen struct {
	as  []Arrival
	pos int
}

func (g *sliceGen) Next() (Arrival, bool) {
	if g.pos >= len(g.as) {
		return Arrival{}, false
	}
	a := g.as[g.pos]
	g.pos++
	return a, true
}

func TestGroupByRejectsBadFactor(t *testing.T) {
	for _, k := range []int{0, -3, math.MaxInt32 + 1, math.MinInt64} {
		if _, err := NewGroupBy(&sliceGen{}, k); err == nil {
			t.Errorf("k=%d accepted", k)
		}
	}
	if _, err := NewGroupBy(&sliceGen{}, math.MaxInt32); err != nil {
		t.Errorf("k=MaxInt32 rejected: %v", err)
	}
	// Nested factors fold, and their product obeys the same bound.
	inner, err := NewGroupBy(&sliceGen{}, 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewGroupBy(inner, 1<<15); err == nil {
		t.Error("nested product 2^31 accepted")
	}
	if g, err := NewGroupBy(inner, 1<<14); err != nil || g.k != 1<<30 || g.g != inner.g {
		t.Errorf("nested 2^16 x 2^14 = %+v, %v; want one adapter of factor 2^30", g, err)
	}
}

// TestGroupByIdentityPassthrough pins the golden-compatibility property:
// with k == 1 the wrapped output is the input, record for record — Count
// stays 0 (not normalized to 1), and identical neighbours stay separate
// records.
func TestGroupByIdentityPassthrough(t *testing.T) {
	in := []Arrival{
		{Time: 10, Src: 0, Dst: 1, Size: 100},
		{Time: 10, Src: 0, Dst: 1, Size: 100},
		{Time: 10, Src: 0, Dst: 1, Size: 100},
		{Time: 10, Src: 0, Dst: 1, Size: 200},
		{Time: 20, Src: 2, Dst: 3, Size: 200, Tag: 5},
		{Time: 30, Src: 4, Dst: 5, Size: 100, Count: 6},
	}
	g, err := NewGroupBy(&sliceGen{as: in}, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range in {
		got, ok := g.Next()
		if !ok {
			t.Fatalf("stream ended at %d", i)
		}
		if got != want {
			t.Errorf("arrival %d = %+v, want %+v", i, got, want)
		}
	}
	if _, ok := g.Next(); ok {
		t.Error("stream should be exhausted")
	}
}

// TestGroupByMultiplies: each record's member count is multiplied by k,
// record for record, and nesting multiplies the factors.
func TestGroupByMultiplies(t *testing.T) {
	in := []Arrival{
		{Time: 10, Src: 0, Dst: 1, Size: 100},
		{Time: 10, Src: 0, Dst: 1, Size: 100},
		{Time: 30, Src: 4, Dst: 5, Size: 100, Count: 6},
	}
	inner, err := NewGroupBy(&sliceGen{as: in}, 2)
	if err != nil {
		t.Fatal(err)
	}
	g, err := NewGroupBy(inner, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range in {
		want := a
		want.Count = int32(6 * a.Members())
		got, ok := g.Next()
		if !ok {
			t.Fatalf("stream ended at %d", i)
		}
		if got != want {
			t.Errorf("record %d = %+v, want %+v", i, got, want)
		}
	}
	if _, ok := g.Next(); ok {
		t.Error("stream should be exhausted")
	}
}

// TestGroupByOverflowPanics: a source that already emits groups can push
// the product past the count's range; the adapter panics rather than
// wrapping the count.
func TestGroupByOverflowPanics(t *testing.T) {
	g, err := NewGroupBy(&sliceGen{as: []Arrival{{Count: 1 << 20}}}, 1<<11)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("count 2^20 x 2^11 did not panic")
		}
	}()
	g.Next()
}
