package lint

import "testing"

// Benchmarks for the lint driver itself: the suite gates CI, so its
// own cost is a budget (docs/LINTS.md records the current numbers).
// BenchmarkLoad times the whole-repo load, go list included;
// BenchmarkRunAnalyzers isolates the analysis pass.

// BenchmarkLoad loads the whole repository, as make lint does.
func BenchmarkLoad(b *testing.B) {
	for i := 0; i < b.N; i++ {
		loader, err := NewLoader("../..")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := loader.Load(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunAnalyzers runs every analyzer over the preloaded repo:
// the marginal cost of adding an analyzer shows up here, not in the
// load.
func BenchmarkRunAnalyzers(b *testing.B) {
	loader, pkgs := repoLoad(b)
	cfg := DefaultConfig(loader.Module)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := Run(loader.Fset, pkgs, cfg)
		if len(res.Findings) != 0 {
			b.Fatalf("repo not clean: %v", res.Findings[0])
		}
	}
}
