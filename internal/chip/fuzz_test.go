package chip

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzParseChipInstance asserts ParseInstance never panics, that every
// instance it accepts passes Validate and sizes its capacity vector to
// NumSites, and that WriteInstance→ParseInstance reproduces an accepted
// instance: the same grid, blockages and site vectors, and a byte-identical
// second write. Seeded with a generated instance plus the committed corpus
// under testdata/fuzz/FuzzParseChipInstance (overflowing and oversized
// grids among them).
func FuzzParseChipInstance(f *testing.F) {
	inst := Generate(GenOpts{W: 4, H: 3, Nets: 2, Capacity: 2, Contention: 0.5, Seed: 1})
	inst.Blockages = []Blockage{{0, 0, 1, 0}}
	var seed bytes.Buffer
	if err := WriteInstance(&seed, inst); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())

	f.Fuzz(func(t *testing.T, in []byte) {
		inst, err := ParseInstance(bytes.NewReader(in))
		if err != nil {
			t.Skip() // invalid inputs are ParseInstance's to reject, not ours
		}
		if err := inst.Validate(); err != nil {
			t.Fatalf("ParseInstance accepted an instance Validate rejects: %v", err)
		}
		if n := len(inst.Capacities(0)); n != inst.Grid.NumSites() {
			t.Fatalf("Capacities has %d sites, grid %dx%d has %d", n, inst.Grid.W, inst.Grid.H, inst.Grid.NumSites())
		}
		var out bytes.Buffer
		if err := WriteInstance(&out, inst); err != nil {
			t.Fatalf("WriteInstance rejected a parsed instance: %v", err)
		}
		again, err := ParseInstance(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("ParseInstance rejected WriteInstance output: %v\n%s", err, out.String())
		}
		if again.Grid != inst.Grid || !reflect.DeepEqual(again.Blockages, inst.Blockages) {
			t.Fatalf("round trip changed the grid or blockages: got %+v %v, want %+v %v",
				again.Grid, again.Blockages, inst.Grid, inst.Blockages)
		}
		for i := range inst.Nets {
			if !reflect.DeepEqual(again.Nets[i].Site, inst.Nets[i].Site) {
				t.Fatalf("round trip changed net %d's sites: got %v, want %v", i, again.Nets[i].Site, inst.Nets[i].Site)
			}
		}
		var out2 bytes.Buffer
		if err := WriteInstance(&out2, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), out2.Bytes()) {
			t.Fatalf("second write differs:\n%s\nvs\n%s", out.String(), out2.String())
		}
	})
}
