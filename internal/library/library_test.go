package library

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestGenerateSpansPaperRanges(t *testing.T) {
	for _, size := range []int{1, 2, 8, 16, 32, 64, 100} {
		lib := Generate(size)
		if len(lib) != size {
			t.Fatalf("size %d: got %d types", size, len(lib))
		}
		if err := lib.Validate(); err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		for i, b := range lib {
			if b.R < PaperRMin-1e-12 || b.R > PaperRMax+1e-12 {
				t.Fatalf("size %d type %d: R=%g outside paper range", size, i, b.R)
			}
			if b.Cin < PaperCinMin-1e-12 || b.Cin > PaperCinMax+1e-12 {
				t.Fatalf("size %d type %d: Cin=%g outside paper range", size, i, b.Cin)
			}
			if b.K < PaperKMin-1e-12 || b.K > PaperKMax+1e-12 {
				t.Fatalf("size %d type %d: K=%g outside paper range", size, i, b.K)
			}
			if b.Cost != i+1 {
				t.Fatalf("size %d type %d: cost %d, want %d", size, i, b.Cost, i+1)
			}
			if b.Inverting {
				t.Fatalf("Generate must not produce inverters")
			}
		}
		if size > 1 {
			if lib[0].R != PaperRMax || math.Abs(lib[size-1].R-PaperRMin) > 1e-12 {
				t.Fatalf("size %d: R endpoints %g..%g", size, lib[0].R, lib[size-1].R)
			}
			if lib[0].Cin != PaperCinMin || math.Abs(lib[size-1].Cin-PaperCinMax) > 1e-9 {
				t.Fatalf("size %d: Cin endpoints %g..%g", size, lib[0].Cin, lib[size-1].Cin)
			}
		}
	}
}

func TestGenerateMonotoneGrading(t *testing.T) {
	lib := Generate(32)
	for i := 1; i < len(lib); i++ {
		if !(lib[i].R < lib[i-1].R) {
			t.Fatalf("R not strictly decreasing at %d", i)
		}
		if !(lib[i].Cin > lib[i-1].Cin) {
			t.Fatalf("Cin not strictly increasing at %d", i)
		}
		if lib[i].K < lib[i-1].K {
			t.Fatalf("K decreasing at %d", i)
		}
	}
}

func TestGeneratePanicsOnZeroSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Generate(0)
}

func TestGenerateWithInverters(t *testing.T) {
	lib := GenerateWithInverters(8)
	if !lib.HasInverters() {
		t.Fatal("no inverters generated")
	}
	ninv := 0
	for i, b := range lib {
		if b.Inverting {
			ninv++
			if i%2 != 1 {
				t.Fatalf("inverter at unexpected index %d", i)
			}
			if !strings.HasPrefix(b.Name, "inv") {
				t.Fatalf("inverter name %q", b.Name)
			}
		}
	}
	if ninv != 4 {
		t.Fatalf("got %d inverters, want 4", ninv)
	}
	if Generate(8).HasInverters() {
		t.Fatal("plain library reports inverters")
	}
}

func TestValidateRejectsBadTypes(t *testing.T) {
	cases := []struct {
		name string
		lib  Library
		want string
	}{
		{"empty", Library{}, "empty"},
		{"zero R", Library{{R: 0, Cin: 1}}, "driving resistance"},
		{"negative R", Library{{R: -1, Cin: 1}}, "driving resistance"},
		{"NaN R", Library{{R: math.NaN(), Cin: 1}}, "driving resistance"},
		{"zero Cin", Library{{R: 1, Cin: 0}}, "input capacitance"},
		{"inf Cin", Library{{R: 1, Cin: math.Inf(1)}}, "input capacitance"},
		{"negative K", Library{{R: 1, Cin: 1, K: -2}}, "intrinsic delay"},
		{"NaN K", Library{{R: 1, Cin: 1, K: math.NaN()}}, "intrinsic delay"},
		{"negative cost", Library{{R: 1, Cin: 1, Cost: -1}}, "negative cost"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.lib.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

func TestSortOrders(t *testing.T) {
	lib := Library{
		{Name: "a", R: 2, Cin: 5},
		{Name: "b", R: 7, Cin: 1},
		{Name: "c", R: 2, Cin: 3},
		{Name: "d", R: 9, Cin: 3},
	}
	rd := lib.ByRDesc(nil)
	want := []int{3, 1, 0, 2} // 9, 7, 2(a before c: stable), 2
	for i := range want {
		if rd[i] != want[i] {
			t.Fatalf("ByRDesc = %v, want %v", rd, want)
		}
	}
	ca := lib.ByCinAsc(nil)
	wantC := []int{1, 2, 3, 0} // 1, 3(c before d: stable), 3, 5
	for i := range wantC {
		if ca[i] != wantC[i] {
			t.Fatalf("ByCinAsc = %v, want %v", ca, wantC)
		}
	}
}

func TestSortOrdersQuick(t *testing.T) {
	f := func(rs []float64) bool {
		lib := make(Library, 0, len(rs))
		for _, r := range rs {
			if math.IsNaN(r) || math.IsInf(r, 0) {
				return true
			}
			v := 1 + math.Abs(math.Mod(r, 100))
			lib = append(lib, Buffer{R: v, Cin: 101 - v})
		}
		if len(lib) == 0 {
			return true
		}
		rd := lib.ByRDesc(nil)
		for i := 1; i < len(rd); i++ {
			if lib[rd[i]].R > lib[rd[i-1]].R {
				return false
			}
		}
		ca := lib.ByCinAsc(nil)
		for i := 1; i < len(ca); i++ {
			if lib[ca[i]].Cin < lib[ca[i-1]].Cin {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBufferDelay(t *testing.T) {
	b := Buffer{R: 0.5, Cin: 2, K: 30}
	if got := b.Delay(10); got != 35 {
		t.Fatalf("Delay(10) = %g, want 35", got)
	}
	if got := b.Delay(0); got != 30 {
		t.Fatalf("Delay(0) = %g, want 30 (intrinsic only)", got)
	}
}

func TestMaxCost(t *testing.T) {
	lib := Library{{R: 1, Cin: 1, Cost: 3}, {R: 1, Cin: 1, Cost: 9}, {R: 1, Cin: 1}}
	if got := lib.MaxCost(); got != 9 {
		t.Fatalf("MaxCost = %d, want 9", got)
	}
}
