package torusnet

import (
	"context"
	"testing"

	"torusnet/internal/sweep"
)

// benchExperiment runs one registered experiment per iteration at Quick
// scale; `go test -bench=E<k>` regenerates experiment E<k>'s rows (the
// full-scale tables live in results/ via cmd/experiments).
func benchExperiment(b *testing.B, id string) {
	e, ok := sweep.ByID(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb := e.Run(sweep.Quick)
		if len(tb.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkE1BlaumBound(b *testing.B)      { benchExperiment(b, "E1") }
func BenchmarkE2FullTorus(b *testing.B)       { benchExperiment(b, "E2") }
func BenchmarkE3SweepSeparator(b *testing.B)  { benchExperiment(b, "E3") }
func BenchmarkE4DimCut(b *testing.B)          { benchExperiment(b, "E4") }
func BenchmarkE5ImprovedBound(b *testing.B)   { benchExperiment(b, "E5") }
func BenchmarkE6ODRExact(b *testing.B)        { benchExperiment(b, "E6") }
func BenchmarkE7MultiODR(b *testing.B)        { benchExperiment(b, "E7") }
func BenchmarkE8UDR(b *testing.B)             { benchExperiment(b, "E8") }
func BenchmarkE9MultiUDR(b *testing.B)        { benchExperiment(b, "E9") }
func BenchmarkE10Figure1(b *testing.B)        { benchExperiment(b, "E10") }
func BenchmarkE11Faults(b *testing.B)         { benchExperiment(b, "E11") }
func BenchmarkE12SimNet(b *testing.B)         { benchExperiment(b, "E12") }
func BenchmarkE13Optimality(b *testing.B)     { benchExperiment(b, "E13") }
func BenchmarkE14SlabCount(b *testing.B)      { benchExperiment(b, "E14") }
func BenchmarkE15RoutingMatrix(b *testing.B)  { benchExperiment(b, "E15") }
func BenchmarkE16TieBreaking(b *testing.B)    { benchExperiment(b, "E16") }
func BenchmarkE17Uniformity(b *testing.B)     { benchExperiment(b, "E17") }
func BenchmarkE18Coefficients(b *testing.B)   { benchExperiment(b, "E18") }
func BenchmarkE19FlowControl(b *testing.B)    { benchExperiment(b, "E19") }

// Micro-benchmarks of the hot engines, for performance tracking.

func BenchmarkLoadComputeODR(b *testing.B) {
	t := NewTorus(16, 3)
	p, err := (Linear{C: 0}).Build(t)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := ComputeLoad(p, ODR{}, LoadOptions{})
		if res.Max <= 0 {
			b.Fatal("bad result")
		}
	}
}

func BenchmarkLoadComputeODRSerial(b *testing.B) {
	t := NewTorus(8, 3)
	p, err := (Linear{C: 0}).Build(t)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeLoad(p, ODR{}, LoadOptions{Workers: 1})
	}
}

// BenchmarkLoadComputeODRGeneric pins the generic O(|P|²) pair loop on the
// same workload as BenchmarkLoadComputeODR; the ratio of the two is the
// machine-independent speedup that scripts/ci_bench_smoke.sh gates on.
func BenchmarkLoadComputeODRGeneric(b *testing.B) {
	t := NewTorus(16, 3)
	p, err := (Linear{C: 0}).Build(t)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := ComputeLoad(p, ODR{}, LoadOptions{FastPath: FastPathOff})
		if res.Max <= 0 {
			b.Fatal("bad result")
		}
	}
}

func BenchmarkLoadComputeODRMulti(b *testing.B) {
	t := NewTorus(16, 3)
	p, err := (Linear{C: 0}).Build(t)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeLoad(p, ODRMulti{}, LoadOptions{})
	}
}

func BenchmarkLoadComputeODRMultiGeneric(b *testing.B) {
	t := NewTorus(16, 3)
	p, err := (Linear{C: 0}).Build(t)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeLoad(p, ODRMulti{}, LoadOptions{FastPath: FastPathOff})
	}
}

func BenchmarkLoadComputeUDR(b *testing.B) {
	t := NewTorus(6, 3)
	p, err := (Linear{C: 0}).Build(t)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeLoad(p, UDR{}, LoadOptions{})
	}
}

func BenchmarkLoadComputeUDRGeneric(b *testing.B) {
	t := NewTorus(6, 3)
	p, err := (Linear{C: 0}).Build(t)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeLoad(p, UDR{}, LoadOptions{FastPath: FastPathOff})
	}
}

func BenchmarkLoadComputeFAR(b *testing.B) {
	t := NewTorus(6, 2)
	p, err := (Linear{C: 0}).Build(t)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ComputeLoad(p, FAR{}, LoadOptions{})
	}
}

// BenchmarkAnalyzeAnalytic pins the analytic tier end to end on the same
// workload as BenchmarkLoadComputeODR/Generic: dispatch recognizes the
// linear placement and answers from the Theorem 2 closed form, so the
// ratio against those two is the closed-form speedup.
func BenchmarkAnalyzeAnalytic(b *testing.B) {
	t := NewTorus(16, 3)
	p, err := (Linear{C: 0}).Build(t)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := ComputeLoad(p, ODR{}, LoadOptions{Analytic: AnalyticAuto})
		if res.Engine != EngineAnalytic || res.Max <= 0 {
			b.Fatalf("engine %q max %g", res.Engine, res.Max)
		}
	}
}

// benchAnalyticK drives the recognize+evaluate core (cached classification
// plus the theorem map) at one torus size. Zero allocations per op, and
// latency must stay flat in k — the whole point of the closed forms.
func benchAnalyticK(b *testing.B, k int) {
	t := NewTorus(k, 3)
	p, err := (Linear{C: 0}).Build(t)
	if err != nil {
		b.Fatal(err)
	}
	if cls := p.LinearClass(); !cls.Recognized {
		b.Fatal("linear placement not recognized")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cls := p.LinearClass()
		ev, ok := AnalyticEMax(k, 3, cls.T, "ODR", true)
		if !ok || ev.EMax <= 0 {
			b.Fatalf("no analytic answer for k=%d", k)
		}
	}
}

func BenchmarkAnalyzeAnalyticK16(b *testing.B)  { benchAnalyticK(b, 16) }
func BenchmarkAnalyzeAnalyticK64(b *testing.B)  { benchAnalyticK(b, 64) }
func BenchmarkAnalyzeAnalyticK256(b *testing.B) { benchAnalyticK(b, 256) }

func BenchmarkSweepBisection(b *testing.B) {
	t := NewTorus(8, 3)
	p, err := (Linear{C: 0}).Build(t)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cut := SweepBisect(p)
		if !cut.Balanced() {
			b.Fatal("unbalanced")
		}
	}
}

func BenchmarkSimulateExchange(b *testing.B) {
	t := NewTorus(8, 2)
	p, err := (Linear{C: 0}).Build(t)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := Simulate(SimConfig{Placement: p, Algorithm: UDR{}, Seed: int64(i)})
		if st.Aborted {
			b.Fatal("aborted")
		}
	}
}

func BenchmarkMonteCarloLoad(b *testing.B) {
	t := NewTorus(6, 2)
	p, err := (Linear{C: 0}).Build(t)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MonteCarloLoad(p, UDR{}, 10, int64(i), LoadOptions{})
	}
}

func BenchmarkE20Wormhole(b *testing.B)  { benchExperiment(b, "E20") }
func BenchmarkE21Schedule(b *testing.B)  { benchExperiment(b, "E21") }

func BenchmarkWormholeExchange(b *testing.B) {
	t := NewTorus(6, 2)
	p, err := (Linear{C: 0}).Build(t)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := SimulateWormhole(WormholeConfig{Placement: p, Algorithm: ODR{}, Seed: 1, MaxCycles: 100000})
		if st.Deadlocked {
			b.Fatal("deadlock")
		}
	}
}

func BenchmarkScheduleExchange(b *testing.B) {
	t := NewTorus(8, 2)
	p, err := (Full{}).Build(t)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := ScheduleExchange(p, ODR{}, 1, ScheduleLongestFirst)
		if res.Length < res.LowerBound() {
			b.Fatal("impossible schedule")
		}
	}
}

func BenchmarkE22Patterns(b *testing.B) { benchExperiment(b, "E22") }
func BenchmarkE23Coverage(b *testing.B) { benchExperiment(b, "E23") }
func BenchmarkE24Degraded(b *testing.B) { benchExperiment(b, "E24") }
func BenchmarkE25BSPGap(b *testing.B)   { benchExperiment(b, "E25") }
func BenchmarkE26Valiant(b *testing.B)  { benchExperiment(b, "E26") }
func BenchmarkE27MeshVsTorus(b *testing.B) { benchExperiment(b, "E27") }
func BenchmarkE28Annealing(b *testing.B)   { benchExperiment(b, "E28") }
func BenchmarkE29Adaptive(b *testing.B)    { benchExperiment(b, "E29") }
func BenchmarkE30OpenLoop(b *testing.B)    { benchExperiment(b, "E30") }
func BenchmarkE31FastPath(b *testing.B)    { benchExperiment(b, "E31") }
func BenchmarkE32Analytic(b *testing.B)    { benchExperiment(b, "E32") }

// BenchmarkBranchBoundT28 is one exhaustive branch-and-bound job of the
// search workload: 8 processors on T²₈ under ODR, proven optimal at
// E_max = 3 after a fixed number of expansions.
func BenchmarkBranchBoundT28(b *testing.B) {
	t := NewTorus(8, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := BranchBoundPlacement(context.Background(), t, ODR{}, AnnealConfig{Size: 8})
		if err != nil || !res.Proven || res.BestEMax != 3 {
			b.Fatalf("bnb on T^2_8: e_max %v proven %t err %v", res.BestEMax, res.Proven, err)
		}
	}
}

// BenchmarkAnnealT38 is one anneal job of the search workload: 64
// processors on T³₈ under ODR, 300 steps from the Lee-sphere seed.
func BenchmarkAnnealT38(b *testing.B) {
	t := NewTorus(8, 3)
	seed, err := LeeSeedPlacement(t, 64, ODR{}, 0)
	if err != nil {
		b.Fatal(err)
	}
	cfg := AnnealConfig{Size: 64, Steps: 300, Seed: 1, Start: seed.Best.Nodes()}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := AnnealPlacement(t, ODR{}, cfg)
		if res.BestEMax > res.StartEMax {
			b.Fatalf("anneal best %v worse than start %v", res.BestEMax, res.StartEMax)
		}
	}
}
