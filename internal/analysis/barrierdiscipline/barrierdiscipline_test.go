package barrierdiscipline_test

import (
	"testing"

	"b2b/internal/analysis/analysistest"
	"b2b/internal/analysis/barrierdiscipline"
)

func TestBarrierdiscipline(t *testing.T) {
	analysistest.Run(t, "testdata", barrierdiscipline.Analyzer, "coord", "install/coord", "publish/coord")
}
