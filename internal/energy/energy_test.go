package energy

import (
	"testing"
	"testing/quick"
)

func TestEstimateBreakdown(t *testing.T) {
	cfg := Config{
		ALUOp: 1, L1Access: 2, L2Access: 3,
		DRAMRead: 10, DRAMWrite: 20, DRAMActivate: 5,
		StaticPower: 100,
	}
	a := Activity{
		Instructions: 1000,
		L1Accesses:   500,
		L2Accesses:   100,
		DRAMReads:    10,
		DRAMWrites:   5,
		RowMisses:    3,
		Cycles:       50,
	}
	b := Estimate(cfg, a)
	const uJ = 1e-6
	if b.Core != 1000*uJ {
		t.Errorf("core = %v", b.Core)
	}
	if b.L1 != 1000*uJ {
		t.Errorf("l1 = %v", b.L1)
	}
	if b.L2 != 300*uJ {
		t.Errorf("l2 = %v", b.L2)
	}
	want := (10*10 + 5*20 + 3*5) * uJ
	if b.DRAM != want {
		t.Errorf("dram = %v, want %v", b.DRAM, want)
	}
	if b.Static != 5000*uJ {
		t.Errorf("static = %v", b.Static)
	}
	sum := b.Core + b.L1 + b.L2 + b.DRAM + b.Static
	if b.Total != sum {
		t.Errorf("total %v != sum %v", b.Total, sum)
	}
}

func TestEstimateMonotonicInActivity(t *testing.T) {
	cfg := DefaultConfig()
	f := func(instr, l1 uint32, cycles uint16) bool {
		a := Activity{Instructions: uint64(instr), L1Accesses: uint64(l1), Cycles: int64(cycles)}
		b := Estimate(cfg, a)
		more := a
		more.Instructions++
		more.Cycles++
		return Estimate(cfg, more).Total > b.Total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestShorterRuntimeSavesStaticEnergy(t *testing.T) {
	cfg := DefaultConfig()
	slow := Estimate(cfg, Activity{Instructions: 1e6, Cycles: 2e6})
	fast := Estimate(cfg, Activity{Instructions: 1e6, Cycles: 1e6})
	if fast.Total >= slow.Total {
		t.Error("same work in fewer cycles must cost less energy")
	}
	if fast.Core != slow.Core {
		t.Error("dynamic core energy must not depend on runtime")
	}
}

func TestDefaultConfigSane(t *testing.T) {
	cfg := DefaultConfig()
	// DRAM events must dwarf on-chip events; static power positive.
	if cfg.DRAMRead < 10*cfg.L2Access {
		t.Error("DRAM read should cost much more than an L2 access")
	}
	if cfg.L2Access < cfg.L1Access || cfg.L1Access < cfg.ALUOp {
		t.Error("energy hierarchy must increase with distance")
	}
	if cfg.StaticPower <= 0 {
		t.Error("static power must be positive")
	}
}
