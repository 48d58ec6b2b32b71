package machine

import (
	"math"
	"reflect"
	"testing"

	"aum/internal/power"
)

// fixedApp reports the same Usage every step and always quiesces, so
// StepN replays every step after the first.
type fixedApp struct {
	u        Usage
	advanced int
}

func (a *fixedApp) Name() string { return "fixed" }
func (a *fixedApp) Demand(Env) Demand {
	return Demand{Class: power.Scalar, Util: a.u.Util}
}
func (a *fixedApp) Step(Env, float64, float64) Usage { return a.u }
func (a *fixedApp) CanQuiesce(float64) bool          { return true }
func (a *fixedApp) AdvanceQuiesced(float64)          { a.advanced++ }

// bitsDiff returns the path of the first float64 field whose bit
// patterns differ between a and b (so +0 and -0 differ), or "".
func bitsDiff(a, b reflect.Value, path string) string {
	if a.Kind() == reflect.Float64 {
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return path
		}
		return ""
	}
	for i := 0; i < a.NumField(); i++ {
		if d := bitsDiff(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); d != "" {
			return d
		}
	}
	return ""
}

// TestSpinReplayExact checks that the spin skip in replayStep is
// bit-identical to sequential stepping, and that only an all-zero
// increment (up to the sign of zero) is marked spin.
func TestSpinReplayExact(t *testing.T) {
	prev := FastForward()
	SetFastForward(true)
	defer SetFastForward(prev)

	cases := []struct {
		name string
		u    Usage
		spin bool
	}{
		// A negative-zero increment must leave the +0 accumulator +0.
		{"util-only", Usage{Util: 0.05, Work: math.Copysign(0, -1)}, true},
		{"dram-bytes", Usage{Util: 0.05, DRAMBytes: 3e5}, false},
	}
	const dt, steps = 1e-3, 200
	for _, tc := range cases {
		seq, ff := newTestMachine(), newTestMachine()
		seqApp, ffApp := &fixedApp{u: tc.u}, &fixedApp{u: tc.u}
		p := Placement{CoreLo: 0, CoreHi: 7}
		id, err := seq.AddTask(seqApp, p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ff.AddTask(ffApp, p); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < steps; i++ {
			seq.Step(dt)
		}
		ff.StepN(dt, steps)

		if got := ff.ff.inc[0].spin; got != tc.spin {
			t.Fatalf("%s: spin = %v, want %v", tc.name, got, tc.spin)
		}
		if ff.FFSteps() != steps-1 || ffApp.advanced != steps-1 {
			t.Fatalf("%s: replayed %d steps, advanced %d, want %d",
				tc.name, ff.FFSteps(), ffApp.advanced, steps-1)
		}
		ss, _ := seq.Stats(id)
		fs, _ := ff.Stats(id)
		if d := bitsDiff(reflect.ValueOf(ss), reflect.ValueOf(fs), "TaskStats"); d != "" {
			t.Fatalf("%s: %s differs:\nseq: %+v\nff:  %+v", tc.name, d, ss, fs)
		}
		if math.Float64bits(seq.EnergyJ()) != math.Float64bits(ff.EnergyJ()) ||
			math.Float64bits(seq.Now()) != math.Float64bits(ff.Now()) {
			t.Fatalf("%s: machine energy or clock diverged", tc.name)
		}
		if tc.spin && (ss.UtilIntegral == 0 || ss.EnergyJ == 0 || ss.Work != 0 || math.Signbit(ss.Work)) {
			t.Fatalf("%s: spin stats not as expected: %+v", tc.name, ss)
		}
	}
}
