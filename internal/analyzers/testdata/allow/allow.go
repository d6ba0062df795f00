// Package allow is a ctmsvet fixture for the //ctmsvet:allow directive:
// both placement forms, the mandatory reason, and unknown-analyzer
// validation. It runs under both syntactic analyzers.
package allow

import "time"

// Trailing form: the directive suppresses its own line.
func sameLine() {
	_ = time.Now() //ctmsvet:allow determinism fixture exercises the trailing form
}

// Line-above form: the directive suppresses the next line.
func lineAbove() {
	//ctmsvet:allow determinism fixture exercises the line-above form
	_ = time.Now()
}

// A directive without a reason is itself a finding, and suppresses
// nothing: the wall-clock read still surfaces.
func missingReason() {
	_ = time.Now() //ctmsvet:allow determinism
	// want `allow directive for "determinism" is missing its mandatory reason`
	// want `time.Now reads the wall clock`
}

// A directive naming an unknown analyzer is a finding and suppresses
// nothing.
func unknownAnalyzer() {
	_ = time.Now() //ctmsvet:allow cosmic rays flipped my bit
	// want `allow directive names unknown analyzer "cosmic"`
	// want `time.Now reads the wall clock`
}

// An allow scoped to one analyzer leaves the others alone.
func otherAnalyzerAllowed() {
	_ = time.Now() //ctmsvet:allow exhaustive fixture exercises an allow scoped to another analyzer
	// want `time.Now reads the wall clock`
}
