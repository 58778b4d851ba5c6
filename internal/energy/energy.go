// Package energy estimates GPU energy from event counts, standing in for
// McPAT + DRAMsim3's energy reporting in the original evaluation. Total
// energy is dynamic (per-event: ALU ops, cache accesses, DRAM operations)
// plus static leakage proportional to runtime — so the two effects the paper
// reports (shorter runtime and cheaper memory behaviour) both show up.
package energy

// Config holds per-event energies in picojoules and static power in
// picojoules per cycle, for a 22nm-class mobile GPU at 800 MHz (Table I).
type Config struct {
	ALUOp        float64 // per shader instruction
	L1Access     float64 // per L1 (texture/vertex/tile) access
	L2Access     float64 // per shared-L2 access
	DRAMRead     float64 // per 64B read burst
	DRAMWrite    float64 // per 64B write burst
	DRAMActivate float64 // per row activation (row-buffer miss)
	StaticPower  float64 // pJ per cycle, whole GPU + memory interface
}

// DefaultConfig returns plausible 22nm/LPDDR4 event energies.
func DefaultConfig() Config {
	return Config{
		ALUOp:        6,
		L1Access:     18,
		L2Access:     120,
		DRAMRead:     2600,
		DRAMWrite:    2800,
		DRAMActivate: 1600,
		StaticPower:  400,
	}
}

// Activity is the per-frame event census the models consume.
type Activity struct {
	Instructions uint64 // shader instructions (vertex + fragment)
	L1Accesses   uint64 // all L1-level accesses
	L2Accesses   uint64
	DRAMReads    uint64
	DRAMWrites   uint64
	RowMisses    uint64 // DRAM activations
	Cycles       int64  // total frame time
}

// Breakdown is the estimated energy split, in microjoules.
type Breakdown struct {
	Core   float64 // shader ALU dynamic energy
	L1     float64
	L2     float64
	DRAM   float64
	Static float64
	Total  float64
}

// Estimate computes the energy breakdown of one frame.
func Estimate(cfg Config, a Activity) Breakdown {
	const pJtouJ = 1e-6
	b := Breakdown{
		Core:   float64(a.Instructions) * cfg.ALUOp * pJtouJ,
		L1:     float64(a.L1Accesses) * cfg.L1Access * pJtouJ,
		L2:     float64(a.L2Accesses) * cfg.L2Access * pJtouJ,
		DRAM:   (float64(a.DRAMReads)*cfg.DRAMRead + float64(a.DRAMWrites)*cfg.DRAMWrite + float64(a.RowMisses)*cfg.DRAMActivate) * pJtouJ,
		Static: float64(a.Cycles) * cfg.StaticPower * pJtouJ,
	}
	b.Total = b.Core + b.L1 + b.L2 + b.DRAM + b.Static
	return b
}
