package registry

import (
	"os"
	"path/filepath"
	"testing"

	"heb/internal/obs"
	"heb/internal/obs/registry/baseline"
)

// FuzzReadManifest feeds obs.ReadManifest, and a registry scan over a
// capture root holding the fuzzed manifest.json, arbitrary bytes: both
// must return an error or a manifest, never panic, and whatever the scan
// indexes must survive being found, scored and compared. The seeds are
// small hand-written manifests; testdata/fuzz/FuzzReadManifest holds the
// manifest of a real 2 h HEB-D flight capture.
func FuzzReadManifest(f *testing.F) {
	for _, seed := range []string{
		`{"v":1,"status":"running","label":"x"}`,
		`{"v":99,"status":"complete"}`,
		`{"v":1,"status":"complete","runs":[{"id":"a","key":"k","fingerprint":"f"},{"id":"a","key":"","status":"killed"}]}`,
		`{"v":1,"runs":[{"id":"b","key":"k","summary":{"metrics":{"ee":0.8}}}],"artifacts":[{"name":"decisions.jsonl","bytes":-5}]}`,
		`[1,2]`,
		`{"runs":null`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		root := t.TempDir()
		dir := filepath.Join(root, "capture")
		if err := os.Mkdir(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, obs.ManifestName), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		_, readErr := obs.ReadManifest(dir)
		r := New(root)
		if err := r.Scan(); err != nil {
			t.Fatalf("scan of a readable root failed: %v", err)
		}
		if (readErr == nil) != (len(r.Captures()) == 1) {
			t.Fatalf("ReadManifest error %v, but the scan indexed %d captures", readErr, len(r.Captures()))
		}
		for _, run := range r.Runs(Filter{}) {
			if _, ok := r.Find(run.ID); !ok {
				t.Fatalf("indexed run %q not found", run.ID)
			}
			_, _ = r.Score(run.ID, baseline.Window{})
			_, _ = r.Compare(run.ID, run.ID, 0)
		}
	})
}
