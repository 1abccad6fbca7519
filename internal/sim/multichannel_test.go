package sim

import (
	"context"
	"testing"

	"clrdram/internal/core"
	"clrdram/internal/workload"
)

func TestMultiChannelRunCompletes(t *testing.T) {
	opts := fastOpts()
	opts.Channels = 2
	out, err := Run(context.Background(), SingleSpec(randomProfile(), core.CLR(0.5)), opts)
	if err != nil {
		t.Fatal(err)
	}
	res := out.Single
	if res.TimedOut {
		t.Fatal("2-channel run timed out")
	}
	if res.Mem.ReadsServed == 0 || res.Mem.Refreshes == 0 {
		t.Fatalf("2-channel stats empty: %+v", res.Mem)
	}
}

func TestTwoChannelsRelieveBandwidthBoundMixes(t *testing.T) {
	// A four-core all-intensive mix saturates one channel; doubling the
	// channels must raise aggregate throughput.
	mix := workload.Mix{Name: "bw", Profiles: [4]workload.Profile{
		randomProfile(), randomProfile(), randomProfile(), randomProfile(),
	}}
	opts := fastOpts()
	opts.TargetInstructions = 30_000

	out, err := Run(context.Background(), MixSpec(mix, core.Baseline()), opts)
	if err != nil {
		t.Fatal(err)
	}
	one := out.Single
	opts2 := opts
	opts2.Channels = 2
	out, err = Run(context.Background(), MixSpec(mix, core.Baseline()), opts2)
	if err != nil {
		t.Fatal(err)
	}
	two := out.Single
	sum := func(r *Result) float64 {
		s := 0.0
		for _, ipc := range r.IPC() {
			s += ipc
		}
		return s
	}
	if sum(two) <= sum(one)*1.1 {
		t.Fatalf("2 channels should clearly beat 1 on a saturated mix: %.3f vs %.3f",
			sum(two), sum(one))
	}
}

func TestMultiChannelDistributesTraffic(t *testing.T) {
	opts := fastOpts()
	opts.Channels = 4
	s, err := NewSystem([]workload.Profile{randomProfile()}, core.CLR(0.25), opts)
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	// Every channel must have served a meaningful share of the reads.
	var counts []uint64
	var total uint64
	for _, ctrl := range s.ctrls {
		c := ctrl.Stats().ReadsServed
		counts = append(counts, c)
		total += c
	}
	if total == 0 {
		t.Fatal("no reads served")
	}
	for ch, c := range counts {
		frac := float64(c) / float64(total)
		if frac < 0.10 {
			t.Fatalf("channel %d served only %.1f%% of reads: %v", ch, frac*100, counts)
		}
	}
}

func TestMultiChannelEnergyAggregates(t *testing.T) {
	opts := fastOpts()
	out, err := Run(context.Background(), SingleSpec(randomProfile(), core.Baseline()), opts)
	if err != nil {
		t.Fatal(err)
	}
	base := out.Single
	opts.Channels = 2
	out, err = Run(context.Background(), SingleSpec(randomProfile(), core.Baseline()), opts)
	if err != nil {
		t.Fatal(err)
	}
	multi := out.Single
	// Two channels burn more background power (two idle ranks) even if
	// dynamic energy is similar; aggregate energy must exceed half of two
	// single-channel runs and include both channels' background.
	if multi.Energy.Background <= base.Energy.Background {
		t.Fatalf("2-channel background energy (%v) should exceed 1-channel (%v)",
			multi.Energy.Background, base.Energy.Background)
	}
	if multi.Energy.Total() <= 0 || multi.PowerMW <= base.PowerMW {
		t.Fatal("aggregate power of two ranks should exceed one rank")
	}
}
