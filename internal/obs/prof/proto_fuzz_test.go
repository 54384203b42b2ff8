package prof

import (
	"bytes"
	"compress/gzip"
	"io"
	"reflect"
	"runtime/pprof"
	"testing"
)

// FuzzParse feeds the pprof decoder arbitrary bytes: malformed input,
// raw or gzipped, must come back as an error, never a panic; a raw proto
// must decode the same once gzipped, the way runtime/pprof writes it;
// and whatever decodes must roll up without panicking. Seeds are this
// process's allocs profile in both encodings; testdata/fuzz/FuzzParse
// holds the malformed corpus.
func FuzzParse(f *testing.F) {
	var gz bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&gz, 0); err != nil {
		f.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz.Bytes()))
	if err != nil {
		f.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(gz.Bytes())
	f.Add(raw)
	f.Fuzz(func(t *testing.T, in []byte) {
		p, err := Parse(bytes.NewReader(in))
		if len(in) < 2 || in[0] != 0x1f || in[1] != 0x8b {
			var buf bytes.Buffer
			zw := gzip.NewWriter(&buf)
			if _, err := zw.Write(in); err != nil {
				t.Fatal(err)
			}
			if err := zw.Close(); err != nil {
				t.Fatal(err)
			}
			pz, zerr := Parse(&buf)
			if (err == nil) != (zerr == nil) || err == nil && !reflect.DeepEqual(p, pz) {
				t.Fatalf("gzipped input decoded differently: raw err %v, gzipped err %v", err, zerr)
			}
		}
		if err != nil {
			return
		}
		for _, st := range p.SampleTypes {
			if r, err := NewRollup([]*Profile{p}, st.Type, LabelPhase); err == nil {
				r.Top(10)
			}
		}
	})
}
