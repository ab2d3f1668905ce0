package lint

import (
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// TestExportDataImporterMissing covers the importer's missing-export-data
// path: the importer must surface the lookup error, not panic or return
// an empty package.
func TestExportDataImporterMissing(t *testing.T) {
	fset := token.NewFileSet()
	imp := ExportDataImporter(fset, map[string]string{"vendored/x": "example.com/x"},
		func(path string) (string, error) {
			if path != "example.com/x" {
				t.Errorf("exportFile called with %q, want the mapped path", path)
			}
			return "", errNoExport
		})
	if _, err := imp.Import("vendored/x"); err == nil ||
		!strings.Contains(err.Error(), "no export data") {
		t.Fatalf("Import: err = %v, want the lookup error", err)
	}
}

var errNoExport = &noExportErr{}

type noExportErr struct{}

func (*noExportErr) Error() string { return "no export data for test" }

// TestExportDataImporterUnreadableFile covers the second failure layer:
// the lookup resolves but the export file does not exist.
func TestExportDataImporterUnreadableFile(t *testing.T) {
	fset := token.NewFileSet()
	imp := ExportDataImporter(fset, nil, func(path string) (string, error) {
		return "/nonexistent/raxmlvet-test.a", nil
	})
	if _, err := imp.Import("example.com/y"); err == nil {
		t.Fatal("Import of package with missing export file: expected error")
	}
}

func TestFactsRoundTrip(t *testing.T) {
	fs := NewFactSet()
	fs.Add("pkg.F", "nondet", "reads the wall clock via time.Now")
	fs.Add("(pkg.T).M", "nondet", "line one\nline two\twith tab")
	fs.Add("pkg.F", "nondet", "second value must lose") // first value wins
	fs.Add("pkg.A", "other", "")

	enc := fs.Encode()
	got, err := DecodeFacts(strings.NewReader(string(enc)))
	if err != nil {
		t.Fatalf("DecodeFacts(Encode()): %v", err)
	}
	if reenc := got.Encode(); string(reenc) != string(enc) {
		t.Fatalf("round trip: Encode(DecodeFacts(Encode())) =\n%s\nwant\n%s", reenc, enc)
	}
	if v, ok := got.Get("pkg.F", "nondet"); !ok || v != "reads the wall clock via time.Now" {
		t.Errorf("pkg.F fact = %q, %v", v, ok)
	}
	if v, ok := got.Get("(pkg.T).M", "nondet"); !ok || v != "line one\nline two\twith tab" {
		t.Errorf("escaped fact corrupted: %q, %v", v, ok)
	}
	if v, ok := got.Get("pkg.A", "other"); !ok || v != "" {
		t.Errorf("empty-value fact = %q, %v", v, ok)
	}

	// Encoding is deterministic: a merged copy re-encodes identically.
	merged := NewFactSet()
	merged.Merge(got)
	if string(merged.Encode()) != string(enc) {
		t.Error("Encode not stable across Merge round trip")
	}
}

func TestDecodeFactsRejectsForeignFormats(t *testing.T) {
	cases := []string{
		"",                              // empty input
		"raxmlvet: no facts\n",          // pre-fact placeholder format
		"raxmlvet-facts/999\na\tb\tc\n", // future version
		factsHeader + "\nonly\ttwo\n",   // malformed fact line
	}
	for _, c := range cases {
		if _, err := DecodeFacts(strings.NewReader(c)); err == nil {
			t.Errorf("DecodeFacts(%q): expected error", c)
		}
	}
}

// TestObjectKeyStripsTestVariant checks the vet/go-list test-variant
// suffix handling: a fact exported while analyzing "pkg [pkg.test]" must
// key identically to the plain package, for both functions and methods
// (where the bracketed suffix lands inside the receiver parentheses).
func TestObjectKeyStripsTestVariant(t *testing.T) {
	sig := types.NewSignatureType(nil, nil, nil, nil, nil, false)
	plain := types.NewPackage("example.com/p", "p")
	variant := types.NewPackage("example.com/p [example.com/p.test]", "p")

	fPlain := types.NewFunc(token.NoPos, plain, "F", sig)
	fVariant := types.NewFunc(token.NoPos, variant, "F", sig)
	if ObjectKey(fPlain) != "example.com/p.F" {
		t.Errorf("plain key = %q", ObjectKey(fPlain))
	}
	if ObjectKey(fVariant) != ObjectKey(fPlain) {
		t.Errorf("test-variant key %q != plain key %q", ObjectKey(fVariant), ObjectKey(fPlain))
	}

	mkMethod := func(pkg *types.Package) *types.Func {
		named := types.NewNamed(types.NewTypeName(token.NoPos, pkg, "T", nil), types.NewStruct(nil, nil), nil)
		recv := types.NewVar(token.NoPos, pkg, "t", types.NewPointer(named))
		msig := types.NewSignatureType(recv, nil, nil, nil, nil, false)
		return types.NewFunc(token.NoPos, pkg, "M", msig)
	}
	mPlain, mVariant := mkMethod(plain), mkMethod(variant)
	if ObjectKey(mPlain) != "(*example.com/p.T).M" {
		t.Errorf("plain method key = %q", ObjectKey(mPlain))
	}
	if ObjectKey(mVariant) != ObjectKey(mPlain) {
		t.Errorf("test-variant method key %q != plain %q", ObjectKey(mVariant), ObjectKey(mPlain))
	}
}
