package inplace

import (
	"go/build"
	"path"
	"strings"
	"testing"
)

// TestReproductionFence keeps the production path apart from the code
// that exists to regenerate the paper's figures: the library, the
// client and the two production commands must not link the simulators,
// the baselines, the layout and SIMD models or the measurement harness.
// internal/perm is not fenced yet: internal/core/cacheaware.go, the
// reproduction Pass* kernels, still links it from the engine's package.
func TestReproductionFence(t *testing.T) {
	fenced := []string{"baseline", "bench", "benchfmt", "cachesim", "gpumodel", "gpusim", "layout", "memsim", "simd"}
	for _, root := range []string{".", "client", "cmd/xpose", "cmd/xposed"} {
		deps, err := moduleDeps(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range fenced {
			if via, ok := deps["inplace/internal/"+f]; ok {
				t.Errorf("%s depends on internal/%s (imported by %s)", root, f, via)
			}
		}
	}
}

// moduleDeps returns the in-module packages the package in directory
// dir (relative to the module root) imports, directly or not, from its
// non-test files, each mapped to one package that imports it.
func moduleDeps(dir string) (map[string]string, error) {
	const module = "inplace"
	deps := map[string]string{}
	queue := []string{path.Join(module, dir)}
	for len(queue) > 0 {
		pkgPath := queue[0]
		queue = queue[1:]
		p, err := build.ImportDir("."+strings.TrimPrefix(pkgPath, module), 0)
		if err != nil {
			return nil, err
		}
		for _, imp := range p.Imports {
			if imp != module && !strings.HasPrefix(imp, module+"/") {
				continue
			}
			if _, seen := deps[imp]; !seen {
				deps[imp] = pkgPath
				queue = append(queue, imp)
			}
		}
	}
	return deps, nil
}
