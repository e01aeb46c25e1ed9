package sim

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTimeAddSub(t *testing.T) {
	var t0 Time
	t1 := t0.Add(60)
	if t1 != 60 {
		t.Fatalf("Add: got %d, want 60", t1)
	}
	if d := t1.Sub(t0); d != 60 {
		t.Fatalf("Sub: got %d, want 60", d)
	}
	if d := t0.Sub(t1); d != -60 {
		t.Fatalf("Sub negative: got %d, want -60", d)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{10, "10ns"},
		{999, "999ns"},
		{3660, "3.66µs"},
		{2 * Microsecond, "2µs"},
		{30 * Millisecond, "30ms"},
		{Second, "1s"},
		{-10, "-10ns"},
		{-3660, "-3.66µs"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("Duration(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

// TestDurationStringExtremes: math.MinInt64 negates to itself, so a
// formatter that prints "-" and recurses on -d never returns. MinInt64 is
// what a float arrival time past the int64 range converts to.
func TestDurationStringExtremes(t *testing.T) {
	for _, c := range []struct {
		d    Duration
		want string
	}{
		{math.MaxInt64, "9.223e+09s"},
		{math.MinInt64, "-9.223e+09s"},
		{math.MinInt64 + 1, "-9.223e+09s"},
	} {
		if got := c.d.String(); got != c.want {
			t.Errorf("Duration(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
	if got := Time(math.MinInt64).String(); got != "-9.223e+09s" {
		t.Errorf("Time(MinInt64).String() = %q", got)
	}
}

func TestDurationConversions(t *testing.T) {
	d := 3660 * Nanosecond
	if got := d.Micros(); math.Abs(got-3.66) > 1e-12 {
		t.Errorf("Micros = %v, want 3.66", got)
	}
	if got := (30 * Millisecond).Seconds(); math.Abs(got-0.03) > 1e-15 {
		t.Errorf("Seconds = %v, want 0.03", got)
	}
	if got := (500 * Microsecond).Millis(); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Millis = %v, want 0.5", got)
	}
}

func TestRateExactness(t *testing.T) {
	r := Gbps(100) // 100 Gbps = 12.5 B/ns
	if got := r.BytesIn(80); got != 1000 {
		t.Errorf("100Gbps over 80ns = %d bytes, want 1000", got)
	}
	if got := r.BytesIn(50); got != 625 {
		t.Errorf("100Gbps over 50ns = %d bytes, want 625 (paper's predefined payload+msg)", got)
	}
	if got := r.BytesIn(90); got != 1125 {
		t.Errorf("100Gbps over 90ns = %d bytes, want 1125 (paper's data slot)", got)
	}
	if got := r.GbpsValue(); got != 100 {
		t.Errorf("GbpsValue = %v, want 100", got)
	}
}

func TestRateTimeFor(t *testing.T) {
	r := Gbps(100)
	if got := r.TimeFor(1125); got != 90 {
		t.Errorf("TimeFor(1125) = %d, want 90", got)
	}
	// Rounds up.
	if got := r.TimeFor(1); got != 1 {
		t.Errorf("TimeFor(1) = %d, want 1", got)
	}
	if got := Rate(0).TimeFor(100); got != 0 {
		t.Errorf("zero rate TimeFor = %d, want 0", got)
	}
}

func TestRateRoundTripProperty(t *testing.T) {
	// For any byte count, transferring for TimeFor(n) at the same rate
	// moves at least n bytes (TimeFor rounds up).
	f := func(n uint16, g uint8) bool {
		r := Gbps(int64(g%200) + 1)
		moved := r.BytesIn(r.TimeFor(int64(n)))
		return moved >= int64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed RNGs diverged at step %d", i)
		}
	}
	c := NewRNG(43)
	same := 0
	for i := 0; i < 1000; i++ {
		if NewRNG(42).Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 10 {
		t.Errorf("different seeds look correlated: %d/1000 equal draws", same)
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	parent := NewRNG(7)
	s1 := parent.Split(1)
	parent2 := NewRNG(7)
	_ = parent2.Split(1)
	s2 := parent2.Split(2)
	equal := 0
	for i := 0; i < 1000; i++ {
		if s1.Uint64() == s2.Uint64() {
			equal++
		}
	}
	if equal > 10 {
		t.Errorf("split streams correlated: %d/1000 equal", equal)
	}
}

func TestRNGIntnBounds(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn(7) out of range: %d", v)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(2)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestRNGExpDurationMean(t *testing.T) {
	r := NewRNG(3)
	const mean = 10 * Microsecond
	var sum int64
	const n = 200000
	for i := 0; i < n; i++ {
		d, ok := r.ExpDuration(mean)
		if !ok || d < 1 {
			t.Fatalf("ExpDuration returned %d (ok=%v), want >= 1", d, ok)
		}
		sum += int64(d)
	}
	got := float64(sum) / n
	if math.Abs(got-float64(mean)) > 0.02*float64(mean) {
		t.Errorf("ExpDuration mean = %v, want ~%v", got, float64(mean))
	}
	if d, ok := r.ExpDuration(0); d != 1 || !ok {
		t.Errorf("ExpDuration(0) = %d (ok=%v), want 1", d, ok)
	}
	// With a mean of 2^62 ns, a draw past the int64 range (any draw above
	// twice the mean, probability e^-2) must report it instead of wrapping.
	past := 0
	for i := 0; i < 1000; i++ {
		d, ok := r.ExpDuration(1 << 62)
		if !ok {
			past++
		} else if d < 1 {
			t.Fatalf("in-range draw %d < 1", d)
		}
	}
	if past == 0 {
		t.Error("no draw of mean 2^62 ns reported the int64 range")
	}
}

func TestRNGPerm(t *testing.T) {
	r := NewRNG(4)
	p := make([]int, 50)
	r.Perm(p)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", p)
		}
		seen[v] = true
	}
	// Identity is astronomically unlikely.
	identity := true
	for i, v := range p {
		if v != i {
			identity = false
			break
		}
	}
	if identity {
		t.Error("Perm returned identity permutation")
	}
}
