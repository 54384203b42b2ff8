package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
)

// FieldDiff is one leaf where two JSON documents disagree. It is the
// exchange format of the structural differ shared by `hebobs bisect` (which
// diffs checkpoint states) and the run registry's compare endpoint (which
// diffs run summaries).
type FieldDiff struct {
	// Path is the JSONPath-style location of the leaf ("$.a.b[2]").
	Path string `json:"path"`
	// A and B are the differing leaf values (containers are summarized).
	A any `json:"a"`
	B any `json:"b"`
}

// DiffJSON decodes two JSON payloads and walks them structurally,
// returning every differing leaf in path order. Numbers compare within
// tol (absolute or relative, whichever is looser; 0 demands exactness —
// the right default for a deterministic simulator); field names in ignore
// are skipped at any depth.
func DiffJSON(a, b json.RawMessage, tol float64, ignore map[string]bool) []FieldDiff {
	var va, vb any
	if err := json.Unmarshal(a, &va); err != nil {
		return []FieldDiff{{Path: "$", A: "<undecodable>", B: string(b)}}
	}
	if err := json.Unmarshal(b, &vb); err != nil {
		return []FieldDiff{{Path: "$", A: string(a), B: "<undecodable>"}}
	}
	var out []FieldDiff
	diffValue("$", va, vb, tol, ignore, &out)
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

func diffValue(path string, a, b any, tol float64, ignore map[string]bool, out *[]FieldDiff) {
	switch av := a.(type) {
	case map[string]any:
		bv, ok := b.(map[string]any)
		if !ok {
			*out = append(*out, FieldDiff{path, describeLeaf(a), describeLeaf(b)})
			return
		}
		keys := make(map[string]bool, len(av)+len(bv))
		for k := range av {
			keys[k] = true
		}
		for k := range bv {
			keys[k] = true
		}
		ordered := make([]string, 0, len(keys))
		for k := range keys {
			ordered = append(ordered, k)
		}
		sort.Strings(ordered)
		for _, k := range ordered {
			if ignore[k] {
				continue
			}
			sub := path + "." + k
			ea, inA := av[k]
			eb, inB := bv[k]
			switch {
			case !inA:
				*out = append(*out, FieldDiff{sub, "<absent>", describeLeaf(eb)})
			case !inB:
				*out = append(*out, FieldDiff{sub, describeLeaf(ea), "<absent>"})
			default:
				diffValue(sub, ea, eb, tol, ignore, out)
			}
		}
	case []any:
		bv, ok := b.([]any)
		if !ok {
			*out = append(*out, FieldDiff{path, describeLeaf(a), describeLeaf(b)})
			return
		}
		n := len(av)
		if len(bv) < n {
			n = len(bv)
		}
		for i := 0; i < n; i++ {
			diffValue(fmt.Sprintf("%s[%d]", path, i), av[i], bv[i], tol, ignore, out)
		}
		if len(av) != len(bv) {
			*out = append(*out, FieldDiff{path + ".len", len(av), len(bv)})
		}
	case float64:
		bv, ok := b.(float64)
		if !ok {
			*out = append(*out, FieldDiff{path, describeLeaf(a), describeLeaf(b)})
			return
		}
		if !floatsClose(av, bv, tol) {
			*out = append(*out, FieldDiff{path, av, bv})
		}
	default:
		// strings, bools, nils: exact.
		if a != b {
			*out = append(*out, FieldDiff{path, describeLeaf(a), describeLeaf(b)})
		}
	}
}

// floatsClose is true within tol absolutely or relative to the larger
// magnitude.
func floatsClose(a, b, tol float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	return d <= tol || d <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// describeLeaf renders a leaf for a report without dumping huge subtrees.
func describeLeaf(v any) any {
	switch tv := v.(type) {
	case nil:
		return "<null>"
	case map[string]any:
		return fmt.Sprintf("<object, %d keys>", len(tv))
	case []any:
		return fmt.Sprintf("<array, %d elems>", len(tv))
	default:
		return v
	}
}
