package nicsim_test

import (
	"testing"

	"superfe/internal/apps"
	"superfe/internal/feature"
	"superfe/internal/gpv"
	"superfe/internal/nicsim"
	"superfe/internal/policy"
	"superfe/internal/switchsim"
	"superfe/internal/trace"
)

// switchStream compiles pol and runs an ENTERPRISE trace of the given
// flow count through a switch, returning the plan and every
// switch→NIC message, residents flushed at the end.
func switchStream(t *testing.T, pol *policy.Policy, flows int) (*policy.Plan, []gpv.Message) {
	t.Helper()
	plan, err := policy.Compile(pol)
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.EnterpriseConfig
	cfg.Flows = flows
	tr := trace.Generate(cfg, 3)
	var msgs []gpv.Message
	sw, err := switchsim.New(switchsim.DefaultConfig(), plan.Switch, func(m gpv.Message) { msgs = append(msgs, m) })
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Packets {
		sw.Process(&tr.Packets[i])
	}
	sw.Flush()
	return plan, msgs
}

// TestProcessKitsuneAdmittedGroupsAllocFree replays a Kitsune message
// stream whose groups are all admitted already: computing and
// emitting the 115-value per-packet vectors must not allocate.
func TestProcessKitsuneAdmittedGroupsAllocFree(t *testing.T) {
	plan, msgs := switchStream(t, apps.Kitsune(), 60)
	vectors := 0
	rt, err := nicsim.NewRuntime(nicsim.DefaultConfig(), plan, func(feature.Vector) { vectors++ })
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range msgs { // admission pass
		rt.Process(m)
	}
	groups := rt.Stats().GroupsLive
	vectors = 0
	i := 0
	allocs := testing.AllocsPerRun(len(msgs), func() {
		rt.Process(msgs[i%len(msgs)])
		i++
	})
	if vectors == 0 {
		t.Fatal("replay emitted no vectors")
	}
	if g := rt.Stats().GroupsLive; g != groups {
		t.Fatalf("replay admitted groups: %d live, %d after the first pass", g, groups)
	}
	if allocs != 0 {
		t.Errorf("Process on admitted Kitsune groups: %.2f allocs per message, want 0", allocs)
	}
}

// TestFlushAllocsIndependentOfGroups checks that Runtime.Flush emits
// from reused buffers: its allocation count is the same whether it
// emits a few dozen groups or four times as many. CUMUL adds the
// synthesize path (cumulative trace resampled by ft_sample).
func TestFlushAllocsIndependentOfGroups(t *testing.T) {
	for _, name := range []string{"NPOD", "CUMUL"} {
		var build func() *policy.Policy
		for _, e := range apps.Catalog() {
			if e.Name == name {
				build = e.Build
			}
		}
		flushAllocs := func(flows int) (float64, int) {
			plan, msgs := switchStream(t, build(), flows)
			vectors := 0
			rt, err := nicsim.NewRuntime(nicsim.DefaultConfig(), plan, func(feature.Vector) { vectors++ })
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range msgs {
				rt.Process(m)
			}
			allocs := testing.AllocsPerRun(3, rt.Flush)
			return allocs, vectors / 4 // one warm-up flush plus three measured
		}
		small, nSmall := flushAllocs(40)
		large, nLarge := flushAllocs(160)
		if nLarge <= nSmall || nSmall == 0 {
			t.Fatalf("%s: flushes emitted %d and %d vectors; want a growing, non-zero count", name, nSmall, nLarge)
		}
		if large > small {
			t.Errorf("%s: Flush of %d groups makes %.1f allocs, of %d groups %.1f", name, nSmall, small, nLarge, large)
		}
	}
}
