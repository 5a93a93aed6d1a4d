package experiments

import "testing"

// The extension beside Table 1: a miss that follows a scan is a real miss
// (it pays I/O and compute) but leaves most atoms out at the paper's
// fractions, and lands between the hit and the paper's miss.
func TestSynopsisMissShape(t *testing.T) {
	skipIfShort(t)
	res, err := testEnv(t).SynopsisMiss(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		if !(row.Hit < row.SynopsisMiss && row.SynopsisMiss < row.Miss) {
			t.Errorf("%s: hit %v, synopsis miss %v, miss %v are not in that order",
				row.Level.Name, row.Hit, row.SynopsisMiss, row.Miss)
		}
		if row.Pruned < 0.5 || row.Pruned >= 1 {
			t.Errorf("%s: %.0f%% of the atoms pruned", row.Level.Name, 100*row.Pruned)
		}
	}
	t.Log("\n" + res.String())
}
