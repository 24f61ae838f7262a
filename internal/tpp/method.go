package tpp

// Method names a protector-selection algorithm.
type Method string

const (
	// MethodSGB is SGB-Greedy: single global budget, (1−1/e) guarantee.
	MethodSGB Method = "sgb"
	// MethodCT is CT-Greedy with a budget division, 1/2 guarantee.
	MethodCT Method = "ct"
	// MethodWT is WT-Greedy with a budget division, ≈0.46 guarantee.
	MethodWT Method = "wt"
	// MethodRD / MethodRDT are the random baselines.
	MethodRD  Method = "rd"
	MethodRDT Method = "rdt"
)

// Division names a budget division strategy for MethodCT / MethodWT.
type Division string

const (
	DivisionTBD Division = "tbd"
	DivisionDBD Division = "dbd"
)
