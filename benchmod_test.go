package unicache

import (
	"os/exec"
	"testing"
)

// TestBenchModuleVets builds and vets the benchmark module. bench/ is its
// own module compiled against this one's internal packages through the
// façade, and `go test ./...` never builds it: without this test a rename
// here breaks the benchmark unnoticed.
func TestBenchModuleVets(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("go tool not on PATH, cannot vet the bench module: %v", err)
	}
	out, err := exec.Command(goTool, "-C", "bench", "vet", ".").CombinedOutput()
	if err != nil {
		t.Fatalf("go -C bench vet .: %v\n%s", err, out)
	}
}
