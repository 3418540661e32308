package experiment

// The small figures' bodies, for the determinism suite in package
// experiment_test: each runs its figure on the LeafSpineRun it is
// given, so the suite can set the shard count and attach observers.
var (
	FigBody1  = fig1
	FigBody2  = fig2
	FigBody9  = fig9
	FigBody11 = fig11
)
