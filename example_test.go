package eventlens_test

import (
	"context"
	"fmt"

	"github.com/perfmetrics/eventlens"
)

// Compose double-precision FLOPs on the simulated Sapphire Rapids — the
// paper's motivating example, end to end through the public API.
func Example() {
	reg, err := eventlens.NewRegistry()
	if err != nil {
		panic(err)
	}
	a, err := eventlens.Analyze(context.Background(), reg, eventlens.AnalysisRequest{Benchmark: "cpu-flops"}, 0)
	if err != nil {
		panic(err)
	}
	for _, def := range a.Defs {
		if def.Metric != "DP Ops." {
			continue
		}
		for _, term := range def.Rounded(0.05).NonZeroTerms() {
			fmt.Printf("%g x %s\n", term.Coeff, term.Event)
		}
	}
	// Output:
	// 2 x FP_ARITH_INST_RETIRED:128B_PACKED_DOUBLE
	// 4 x FP_ARITH_INST_RETIRED:256B_PACKED_DOUBLE
	// 8 x FP_ARITH_INST_RETIRED:512B_PACKED_DOUBLE
	// 1 x FP_ARITH_INST_RETIRED:SCALAR_DOUBLE
}

// Decode what an undocumented raw event measures.
func ExampleExplainEvent() {
	bench, err := eventlens.BenchmarkByName("branch")
	if err != nil {
		panic(err)
	}
	set, err := bench.Collect(context.Background(), eventlens.DefaultRunConfig())
	if err != nil {
		panic(err)
	}
	basis, err := bench.Basis()
	if err != nil {
		panic(err)
	}
	noise := eventlens.FilterNoise(set, 1e-10)
	e, err := eventlens.ExplainEvent(basis, "BR_INST_RETIRED:COND_NTAKEN",
		noise.Kept["BR_INST_RETIRED:COND_NTAKEN"], 5e-4, 1e-2)
	if err != nil {
		panic(err)
	}
	fmt.Println(e)
	// Output:
	// BR_INST_RETIRED:COND_NTAKEN = 1 x CR - 1 x T   (exact)
}

// The paper's pivot scoring, via the facade.
func ExampleColumnScore() {
	fmt.Println(eventlens.ColumnScore([]float64{1.002, 0.001, -0.5, 1.5}, 0.01))
	// Output: 4.5
}
