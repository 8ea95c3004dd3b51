package device

import (
	"testing"

	"shmt/internal/interconnect"
	"shmt/internal/tensor"
	"shmt/internal/vop"
)

// fakeDevice is a minimal Device for registry tests.
type fakeDevice struct {
	name string
	kind Kind
	rank int
	mem  int64
	ops  map[vop.Opcode]bool
}

func (f *fakeDevice) Name() string      { return f.name }
func (f *fakeDevice) Kind() Kind        { return f.kind }
func (f *fakeDevice) AccuracyRank() int { return f.rank }
func (f *fakeDevice) Supports(op vop.Opcode) bool {
	if f.ops == nil {
		return true
	}
	return f.ops[op]
}
func (f *fakeDevice) ExecuteInto(vop.Opcode, []*tensor.Matrix, *tensor.Matrix, map[string]float64) (*tensor.Matrix, error) {
	return tensor.NewMatrix(1, 1), nil
}
func (f *fakeDevice) Admit(vop.Opcode, []*tensor.Matrix) (Ticket, error) { return Ticket{}, nil }
func (f *fakeDevice) Compute(Ticket, vop.Opcode, []*tensor.Matrix, *tensor.Matrix, map[string]float64) (*tensor.Matrix, error) {
	return tensor.NewMatrix(1, 1), nil
}
func (f *fakeDevice) ExecTime(vop.Opcode, int) float64 { return 1 }
func (f *fakeDevice) DispatchOverhead() float64        { return 0 }
func (f *fakeDevice) Link() interconnect.Link          { return interconnect.HostDRAM }
func (f *fakeDevice) ElemBytes() int                   { return 4 }
func (f *fakeDevice) MemoryBytes() int64               { return f.mem }

func TestRegistryBasics(t *testing.T) {
	g := &fakeDevice{name: "gpu", kind: GPU, rank: 1}
	p := &fakeDevice{name: "tpu", kind: TPU, rank: 3}
	r, err := NewRegistry(g, p)
	if err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 || r.Index("gpu") != 0 || r.Index("tpu") != 1 {
		t.Fatal("queue indices wrong")
	}
	if r.Index("dsp") != -1 {
		t.Fatal("unknown device should index -1")
	}
	if r.Get(1).Name() != "tpu" {
		t.Fatal("Get wrong")
	}
}

func TestRegistryRejectsDuplicatesAndEmpty(t *testing.T) {
	a := &fakeDevice{name: "x"}
	if _, err := NewRegistry(a, &fakeDevice{name: "x"}); err == nil {
		t.Fatal("duplicate names should fail")
	}
	if _, err := NewRegistry(); err == nil {
		t.Fatal("empty registry should fail")
	}
	if _, err := NewRegistry(nil); err == nil {
		t.Fatal("nil device should fail")
	}
}

func TestKindString(t *testing.T) {
	if CPU.String() != "cpu" || GPU.String() != "gpu" || TPU.String() != "tpu" {
		t.Fatal("kind names wrong")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind should still print")
	}
}
