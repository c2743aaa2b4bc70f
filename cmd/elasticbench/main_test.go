package main

import (
	"strings"
	"testing"
)

func TestParseExperiments(t *testing.T) {
	pick, err := parseExperiments("Table1, fig4")
	if err != nil {
		t.Fatal(err)
	}
	if !pick("table1") || !pick("fig4") || pick("fig5") {
		t.Error("selection should hold exactly table1 and fig4")
	}
	if pick, err = parseExperiments("all"); err != nil || !pick("queries") {
		t.Errorf("all must select every experiment (err %v)", err)
	}
	// An unknown name used to select nothing, print nothing and exit 0.
	for _, spec := range []string{"bogus", "fig4,bogus", ""} {
		_, err := parseExperiments(spec)
		if err == nil {
			t.Fatalf("-exp %q must be rejected", spec)
		}
		for _, name := range experimentNames {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("-exp %q: error %q does not list %s", spec, err, name)
			}
		}
	}
}
