package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadAudits feeds audits.jsonl readers arbitrary bytes: malformed
// input must come back as an error, never a panic, and whatever parses
// must survive a write/read round trip unchanged. Seeds are the golden
// capture artifacts; testdata/fuzz/FuzzReadAudits holds the malformed
// corpus.
func FuzzReadAudits(f *testing.F) {
	seeds, _ := filepath.Glob(filepath.Join("..", "..", "testdata", "golden", "*", "audits.jsonl"))
	for _, path := range seeds {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		reports, err := ReadJSONL[AuditReport](bytes.NewReader(raw))
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := WriteJSONL(&once, reports); err != nil {
			t.Fatal(err)
		}
		again, err := ReadJSONL[AuditReport](bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("re-read of written audits failed: %v", err)
		}
		if err := WriteJSONL(&twice, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatalf("audits changed across a round trip:\n%s\n%s", once.Bytes(), twice.Bytes())
		}
	})
}
