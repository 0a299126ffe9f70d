package mlkit

// RefKitNETScore hands the old KitNET.Score (kitnet_flat_oracle_test.go) to the
// external test package, which can import the pipeline engine to score
// real A06 feature matrices (kitnet_registry_test.go).
var RefKitNETScore = refKitNETScore
