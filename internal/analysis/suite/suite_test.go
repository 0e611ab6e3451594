package suite_test

import (
	"testing"

	"b2b/internal/analysis"
	"b2b/internal/analysis/suite"
)

// TestEveryAnalyzerFiresOnBrokenFixture proves the CI gate has teeth: each
// analyzer's testdata contains an intentionally broken package, and each must
// produce at least one finding there. cmd/b2blint exits 1 whenever findings
// are non-empty, so a violation of any of these invariants fails the lint
// job; an analyzer that silently stopped firing fails this test instead.
func TestEveryAnalyzerFiresOnBrokenFixture(t *testing.T) {
	cases := []struct {
		name     string
		rule     string // a rule with its own broken fixture ("": the analyzer's first)
		testdata string
		patterns []string
	}{
		{"barrierdiscipline", "", "../barrierdiscipline/testdata/src", []string{"coord"}},
		{"barrierdiscipline", "install", "../barrierdiscipline/testdata/src", []string{"install/coord"}},
		{"barrierdiscipline", "publish", "../barrierdiscipline/testdata/src", []string{"publish/coord"}},
		{"canondeterminism", "", "../canondeterminism/testdata/src", []string{"canon"}},
		{"closecheck", "", "../closecheck/testdata/src", []string{"store"}},
		{"cowaliasing", "", "../cowaliasing/testdata/src", []string{"pagestate", "replica"}},
		{"verifybeforetrust", "", "../verifybeforetrust/testdata/src", []string{"handlers"}},
	}
	for _, tc := range cases {
		label := tc.name
		if tc.rule != "" {
			label += "-" + tc.rule
		}
		t.Run(label, func(t *testing.T) {
			a := suite.ByName(tc.name)
			if a == nil {
				t.Fatalf("analyzer %s missing from suite", tc.name)
			}
			loader, err := analysis.NewFixtureLoader(tc.testdata)
			if err != nil {
				t.Fatalf("fixture loader: %v", err)
			}
			pkgs, err := loader.Load(tc.patterns...)
			if err != nil {
				t.Fatalf("loading %v: %v", tc.patterns, err)
			}
			findings, err := analysis.Run(pkgs, []*analysis.Analyzer{a})
			if err != nil {
				t.Fatalf("running %s: %v", tc.name, err)
			}
			if len(findings) == 0 {
				t.Fatalf("%s produced no findings on its intentionally broken fixture: b2blint would exit 0 and CI would wave the violation through", tc.name)
			}
		})
	}
}

// TestByNameUnknown pins the nil contract ByName callers rely on.
func TestByNameUnknown(t *testing.T) {
	if a := suite.ByName("nosuchanalyzer"); a != nil {
		t.Fatalf("ByName(nosuchanalyzer) = %v, want nil", a.Name)
	}
	if got := len(suite.Analyzers()); got != 5 {
		t.Fatalf("suite has %d analyzers, want 5", got)
	}
}
