// Package registry maintains a queryable index over a tree of capture
// directories. Every directory that holds a manifest.json (written by
// obs.Capture) becomes one Capture entry; the runs indexed inside each
// manifest are flattened into addressable Run rows. The registry is the
// storage layer behind hebmon's /api/runs endpoints: it scans on demand,
// optionally re-scans on a polling interval, and never blocks readers on
// a scan in progress.
package registry

import (
	"context"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"heb/internal/obs"
)

// Run is one flattened registry row: a run manifest plus the capture it
// came from. Runs are addressed by their manifest ID (derived from run
// key + content fingerprint); two captures holding byte-identical runs
// share an ID, and lookups resolve to the first capture in sorted order.
//
// Captures whose manifest is not yet complete (status running, killed or
// failed) carry no run index; they surface as one placeholder row each,
// so a live or dead sweep is visible in the same table as finished runs.
type Run struct {
	obs.RunManifest
	// Capture is the run's capture directory relative to the registry
	// root ("." for the root itself).
	Capture string `json:"capture"`
	// CaptureStatus is the owning capture's lifecycle status; a run row
	// only exists once its capture wrote a run index, but the capture
	// may since have been re-opened by a resume.
	CaptureStatus string `json:"capture_status"`
	// Label is the owning capture's sweep/experiment label.
	Label string `json:"label,omitempty"`
}

// Capture summarizes one manifest-bearing directory.
type Capture struct {
	// Dir is the capture directory relative to the registry root.
	Dir string `json:"dir"`
	// Status and Label echo the manifest lifecycle fields.
	Status string `json:"status"`
	Label  string `json:"label,omitempty"`
	// Runs counts indexed runs and Bytes totals the inventoried
	// artifact payload.
	Runs  int   `json:"runs"`
	Bytes int64 `json:"bytes"`
	// Manifest is the full parsed manifest.
	Manifest obs.Manifest `json:"-"`
}

// Filter selects runs by exact field match; empty fields match
// everything.
type Filter struct {
	Scheme   string
	Workload string
	Status   string
}

func (f Filter) match(r Run) bool {
	if f.Scheme != "" && r.Scheme != f.Scheme {
		return false
	}
	if f.Workload != "" && r.Workload != f.Workload {
		return false
	}
	if f.Status != "" && r.Status != f.Status {
		return false
	}
	return true
}

// Registry indexes the capture directories under one root. All methods
// are safe for concurrent use; Scan swaps the index atomically so
// readers observe either the previous snapshot or the new one.
type Registry struct {
	root string

	mu       sync.RWMutex
	captures []Capture
	runs     []Run
	byID     map[string]int
	errs     []string
}

// New builds a registry over root. The index is empty until the first
// Scan.
func New(root string) *Registry {
	return &Registry{root: root, byID: map[string]int{}}
}

// Root returns the scanned root directory.
func (r *Registry) Root() string { return r.root }

// Scan rebuilds the index by walking the root for manifest.json files.
// Unreadable or unparsable manifests are recorded (see Errors) but do
// not abort the scan; only a failure to walk the root itself is
// returned.
func (r *Registry) Scan() error {
	var captures []Capture
	var errs []string
	err := filepath.WalkDir(r.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			if path == r.root {
				return err
			}
			errs = append(errs, err.Error())
			return nil
		}
		if d.IsDir() || d.Name() != obs.ManifestName {
			return nil
		}
		dir := filepath.Dir(path)
		rel, rerr := filepath.Rel(r.root, dir)
		if rerr != nil {
			rel = dir
		}
		m, merr := obs.ReadManifest(dir)
		if merr != nil {
			errs = append(errs, fmt.Sprintf("%s: %v", rel, merr))
			return nil
		}
		c := Capture{Dir: rel, Status: m.Status, Label: m.Label, Runs: len(m.Runs), Manifest: m}
		for _, a := range m.Artifacts {
			c.Bytes += a.Bytes
		}
		captures = append(captures, c)
		return nil
	})
	if err != nil {
		return fmt.Errorf("registry: scan %s: %w", r.root, err)
	}
	sort.Slice(captures, func(i, j int) bool { return captures[i].Dir < captures[j].Dir })

	var runs []Run
	byID := make(map[string]int)
	for _, c := range captures {
		if len(c.Manifest.Runs) == 0 {
			// A capture without a run index is in-flight or dead; give it
			// a placeholder row so its lifecycle is queryable.
			runs = append(runs, Run{
				RunManifest:   obs.RunManifest{ID: obs.RunID("capture|"+c.Dir, ""), Status: c.Status},
				Capture:       c.Dir,
				CaptureStatus: c.Status,
				Label:         c.Label,
			})
		}
		for _, rm := range c.Manifest.Runs {
			runs = append(runs, Run{RunManifest: rm, Capture: c.Dir, CaptureStatus: c.Status, Label: c.Label})
		}
	}
	for i, run := range runs {
		if _, dup := byID[run.ID]; !dup {
			byID[run.ID] = i
		}
	}

	r.mu.Lock()
	r.captures = captures
	r.runs = runs
	r.byID = byID
	r.errs = errs
	r.mu.Unlock()
	return nil
}

// Errors returns the per-manifest problems of the last scan.
func (r *Registry) Errors() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.errs...)
}

// Captures returns the indexed captures sorted by directory.
func (r *Registry) Captures() []Capture {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]Capture(nil), r.captures...)
}

// Runs returns the filtered run rows, ordered by (capture dir, manifest
// position) — a deterministic order for any scan.
func (r *Registry) Runs(f Filter) []Run {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []Run
	for _, run := range r.runs {
		if f.match(run) {
			out = append(out, run)
		}
	}
	return out
}

// Find resolves a run ID to its row. When byte-identical runs exist in
// several captures the first capture in sorted order wins; their content
// is identical by construction, so the choice is immaterial.
func (r *Registry) Find(id string) (Run, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	i, ok := r.byID[id]
	if !ok {
		return Run{}, false
	}
	return r.runs[i], true
}

// Watch re-scans every interval until ctx is done. Scan errors are
// retained for Errors() and do not stop the loop.
func (r *Registry) Watch(ctx context.Context, every time.Duration) {
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := r.Scan(); err != nil {
				r.mu.Lock()
				r.errs = append(r.errs, err.Error())
				r.mu.Unlock()
			}
		}
	}
}
