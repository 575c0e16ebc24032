package fingerprintcheck_test

import (
	"testing"

	"nocbt/internal/lint/fingerprintcheck"
	"nocbt/internal/lint/linttest"
)

func TestFingerprintcheckFixtures(t *testing.T) {
	saved := fingerprintcheck.Targets
	defer func() { fingerprintcheck.Targets = saved }()
	fingerprintcheck.Targets = []fingerprintcheck.Target{
		{Pkg: "fixture/a", Type: "JSONConfig", Mode: fingerprintcheck.JSONVisible},
		{Pkg: "fixture/a", Type: "Spec", Mode: fingerprintcheck.Serialized, Serializers: []string{"Serialize", "nameOf"}},
		{Pkg: "fixture/a", Type: "Axes", Mode: fingerprintcheck.Serialized, Serializers: []string{"Spec"}},
	}
	linttest.Run(t, fingerprintcheck.Analyzer, "../testdata/fingerprintcheck/a")
}
