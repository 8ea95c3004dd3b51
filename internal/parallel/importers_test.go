package parallel

import (
	"go/build"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// poolUsers are the only packages outside tests that may import this one:
// core runs a round's two pool passes (the compute pass over the admitted
// HLOPs and the resident-cast warm-up), and serve reports the pool's width on
// /statusz. A kernel or a device cast is a plain loop inside one of those
// tasks, so there is one level of host parallelism.
var poolUsers = []string{"shmt/internal/core", "shmt/internal/serve"}

// TestOnlyThePoolPassesImportParallel reads the imports of every non-test
// file of the module (build constraints ignored, so every architecture's
// files count) and fails on a package outside poolUsers that imports
// internal/parallel.
func TestOnlyThePoolPassesImportParallel(t *testing.T) {
	const self = "shmt/internal/parallel"
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found: %v", err)
	}
	ctx := build.Default
	ctx.UseAllFiles = true
	var importers []string
	err = filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); dir != root && (name == "testdata" || name[0] == '.' || name[0] == '_') {
			return filepath.SkipDir
		}
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil && dir != root {
			return filepath.SkipDir // a nested module, not part of this one
		}
		pkg, err := ctx.ImportDir(dir, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		}
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		path := filepath.ToSlash(filepath.Join("shmt", rel))
		if slices.Contains(pkg.Imports, self) {
			importers = append(importers, path)
			if !slices.Contains(poolUsers, path) {
				t.Errorf("%s imports %s: only %v run work on the host pool", path, self, poolUsers)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(importers, poolUsers[0]) {
		t.Fatalf("found no import of %s in %s (importers %v): the walk missed the module", self, poolUsers[0], importers)
	}
}
