package main

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"testing"
)

// FuzzRunsQuery feeds hebmon's query parsing — the /api/runs filters
// (status=, scheme=, workload=), score's window= and min_cohort=,
// compare's tol=, and the recorder's /history n= — arbitrary query
// strings and run ids, with and without a registry. Every answer must be
// 200, 400, 404 or 503, never a panic or a server error.
func FuzzRunsQuery(f *testing.F) {
	root := f.TempDir()
	m := captureTwoSeeds(f, filepath.Join(root, "sweep"))
	a, b := m.Runs[0].ID, m.Runs[1].ID
	withReg, _ := newTestMonitor(f, root)
	noReg, _ := newTestMonitor(f, "")
	muxes := []http.Handler{withReg.mux(), noReg.mux()}
	for _, q := range []string{
		"", "status=complete", "status=bogus", "scheme=HEB-D&workload=PR", "scheme=NoSuch",
		"tol=0.01", "tol=NaN", "tol=-1", "tol=Inf", "tol=1e999", "n=5", "n=-3", "n=99999999999999999999",
		"window=4&min_cohort=2", "window=-1", "min_cohort=x", "%zz&;==&tol",
	} {
		f.Add(q, a, b)
	}
	f.Add("tol=0", a, "ffffffffffff")
	f.Fuzz(func(t *testing.T, query, id, other string) {
		id, other = url.PathEscape(id), url.PathEscape(other)
		if id == "" || id == "." || id == ".." || other == "" || other == "." || other == ".." {
			return // the mux redirects unclean paths before any handler parses
		}
		for _, path := range []string{
			"/api/runs", "/api/runs/" + id + "/score", "/api/runs/" + id + "/compare/" + other, "/history",
		} {
			for _, mux := range muxes {
				req := httptest.NewRequest(http.MethodGet, path, nil)
				req.URL.RawQuery = query
				rec := httptest.NewRecorder()
				mux.ServeHTTP(rec, req)
				switch rec.Code {
				case http.StatusOK, http.StatusBadRequest, http.StatusNotFound, http.StatusServiceUnavailable:
				default:
					t.Fatalf("GET %s?%s = %d: %s", path, query, rec.Code, rec.Body)
				}
			}
		}
	})
}
