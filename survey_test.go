package reach_test

import (
	"testing"

	reach "repro"
	"repro/internal/core"
	_ "repro/internal/survey" // the sweeps over Kinds() cover all of Table 1
)

// TestKindsCoverTheSurvey: with internal/survey linked, Kinds() and
// LCRKinds() list all 22 + 7 rows of Tables 1 and 2, and each row's Name
// is what its built index reports. Ten plain rows serve, and those are
// the root's constants.
func TestKindsCoverTheSurvey(t *testing.T) {
	if got := len(reach.Kinds()); got != 22 {
		t.Errorf("Kinds() has %d kinds, want 22", got)
	}
	if got := len(reach.LCRKinds()); got != 7 {
		t.Errorf("LCRKinds() has %d kinds, want 7", got)
	}
	var serving []reach.Kind
	for _, r := range core.PlainKinds() {
		ix, err := reach.Build(reach.Kind(r.Kind), reach.Fig1Plain(), reach.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ix.Name() != r.Name {
			t.Errorf("%s: index reports Name %q, the table says %q", r.Kind, ix.Name(), r.Name)
		}
		if r.Serves {
			serving = append(serving, reach.Kind(r.Kind))
		}
	}
	want := []reach.Kind{reach.KindBFL, reach.KindDL, reach.KindFeline, reach.KindFerrari, reach.KindGRAIL,
		reach.KindIP, reach.KindPathTree, reach.KindPLL, reach.KindPReaCH, reach.KindTOL}
	if len(serving) != len(want) {
		t.Fatalf("serving kinds %v, want %v", serving, want)
	}
	for i := range want {
		if serving[i] != want[i] {
			t.Fatalf("serving kinds %v, want %v", serving, want)
		}
	}
	for _, r := range core.LCRKinds {
		ix, err := reach.BuildLCR(reach.LCRKind(r.Kind), reach.Fig1Labeled(), reach.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if ix.Name() != r.Name {
			t.Errorf("%s: index reports Name %q, the table says %q", r.Kind, ix.Name(), r.Name)
		}
	}
}
