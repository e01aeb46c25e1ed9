package negotiator

import (
	"math"
	"testing"

	"negotiator/internal/sim"
	"negotiator/internal/topo"
)

func TestDefaultTimingMatchesPaper(t *testing.T) {
	tm := DefaultTiming()
	if got := tm.PiggybackBytes(); got != 595 {
		t.Errorf("piggyback payload = %d B, want 595 (paper §4.1)", got)
	}
	if got := tm.DataPayloadBytes(); got != 1115 {
		t.Errorf("data payload = %d B, want 1115 (1125 B slot - 10 B header)", got)
	}
	// 128 ToRs x 8 ports: 16 predefined slots.
	if got := tm.PredefinedLen(16); got != 960 {
		t.Errorf("predefined phase = %v, want 0.96µs", got)
	}
	if got := tm.ScheduledLen(); got != 2700 {
		t.Errorf("scheduled phase = %v, want 2.7µs", got)
	}
	if got := tm.EpochLen(16); got != 3660 {
		t.Errorf("epoch = %v, want 3.66µs", got)
	}
	// The share of the epoch spent in guardbands: the paper keeps it under
	// 10%, 4.37% at defaults.
	if got := float64(16*tm.Guardband) / float64(tm.EpochLen(16)); math.Abs(got-0.0437) > 0.0005 {
		t.Errorf("guardband share = %.4f, want ~4.37%%", got)
	}
	if got := tm.EpochPortBytes(); got != 30*1115 {
		t.Errorf("epoch port bytes = %d", got)
	}
}

func TestStageLag(t *testing.T) {
	tm := DefaultTiming()
	// Default: 0.96µs predefined + 2µs prop < 3.66µs epoch: lag 1.
	if got := tm.StageLag(16); got != 1 {
		t.Errorf("stage lag = %d, want 1", got)
	}
	// Very long propagation forces pipeline expansion (paper §3.3.1 fn 3).
	tm.PropDelay = 10 * sim.Microsecond
	if got := tm.StageLag(16); got != 3 {
		t.Errorf("stage lag with 10µs prop = %d, want 3 (ceil(10.96/3.66))", got)
	}
}

func TestTimingValidate(t *testing.T) {
	top, _ := topo.NewParallel(8, 2)
	good := DefaultTiming()
	if err := good.Validate(top); err != nil {
		t.Errorf("default timing invalid: %v", err)
	}
	bad := good
	bad.PredefinedSlot = bad.Guardband // no transmission time
	if bad.Validate(top) == nil {
		t.Error("slot <= guardband accepted")
	}
	bad = good
	bad.ScheduledSlots = 0
	if bad.Validate(top) == nil {
		t.Error("empty scheduled phase accepted")
	}
	bad = good
	bad.LinkRate = 0
	if bad.Validate(top) == nil {
		t.Error("zero link rate accepted")
	}
	bad = good
	bad.PropDelay = -1
	if bad.Validate(top) == nil {
		t.Error("negative propagation accepted")
	}
}

func TestNoSpeedupTiming(t *testing.T) {
	// Figure 11: no speedup = 50 Gbps per port on 8-port ToRs vs 400 Gbps
	// hosts. Slot durations stay, payloads halve.
	tm := DefaultTiming()
	tm.LinkRate = sim.Gbps(50)
	if got := tm.PiggybackBytes(); got != 282 {
		t.Errorf("no-speedup piggyback = %d, want 282 (312-30)", got)
	}
	if got := tm.DataPayloadBytes(); got != 552 {
		t.Errorf("no-speedup data payload = %d, want 552 (562-10)", got)
	}
}
