// Backward-slicing example: debugging with OptSlice.
//
//	go run ./examples/slicer
//
// A small order-processing program prints a wrong total. The example
// computes the dynamic backward slice of the failing print — the set
// of statements whose execution actually influenced it — three ways:
// full tracing (Giri), traditional hybrid slicing, and optimistic
// hybrid slicing. All three agree; they differ only in how much of the
// execution they had to trace.
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"

	"oha"
)

const src = `
	global inventory[32];
	global total = 0;
	global audit = 0;
	global auditmode = 0;

	func restock(id, n) {
		inventory[id % 32] = inventory[id % 32] + n;
		return 0;
	}

	func audited(amount) {
		// Heavy audit trail, irrelevant to the total... unless the
		// auditor folds it back in (never happens in production).
		var i = 0;
		while (i < 16) {
			audit = audit + (amount * i) % 13;
			i = i + 1;
		}
		return audit % 7;
	}

	func sell(id, n, price) {
		var have = inventory[id % 32];
		if (have < n) { n = have; }
		inventory[id % 32] = have - n;
		var charge = n * price;
		// BUG: a 10% "discount" applied by integer division truncates.
		charge = charge - charge / 10;
		var adj = audited(charge);
		if (auditmode) { charge = charge + adj; }
		total = total + charge;
		return 0;
	}

	func main() {
		var i = 1;
		while (i + 2 < ninputs()) {
			if (input(i) == 0) {
				restock(input(i + 1), 50);
			} else {
				sell(input(i + 1), 3, input(i + 2));
			}
			i = i + 3;
		}
		print(total);
	}
`

func main() {
	prog := oha.MustCompile(src)
	inputs := []int64{0,
		0, 7, 0, // restock item 7
		1, 7, 100, // sell 3 × 100
		1, 7, 40, // sell 3 × 40
	}
	exec := oha.Execution{Inputs: inputs, Seed: 1}
	criterion := oha.Prints(prog)[0]

	profile, err := oha.Profile(prog, func(run int) oha.Execution {
		return oha.Execution{Inputs: inputs, Seed: uint64(run + 1)}
	}, 16)
	if err != nil {
		log.Fatal(err)
	}

	full, err := oha.RunFullGiri(prog, criterion, exec, oha.RunOptions{}, 0)
	if err != nil {
		log.Fatal(err)
	}
	hybrid, err := oha.NewHybridSlicer(prog, criterion, 4096, nil, oha.StaticConfig{})
	if err != nil {
		log.Fatal(err)
	}
	hrep, err := hybrid.Run(exec, oha.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}
	slicer, err := oha.NewSlicer(prog, profile.DB, criterion, 4096, nil, oha.StaticConfig{})
	if err != nil {
		log.Fatal(err)
	}
	orep, err := slicer.Run(exec, oha.RunOptions{})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("program output (wrong total): %v\n\n", orep.Output)
	fmt.Printf("%-22s %10s %12s\n", "slicer", "slice size", "trace nodes")
	fmt.Printf("%-22s %10d %12d\n", "full Giri", full.Slice.Size(), full.TraceNodes)
	fmt.Printf("%-22s %10d %12d\n", "traditional hybrid", hrep.Slice.Size(), hrep.TraceNodes)
	fmt.Printf("%-22s %10d %12d  (rolled back: %v)\n\n", "optimistic (OptSlice)",
		orep.Slice.Size(), orep.TraceNodes, orep.RolledBack)

	if !full.Slice.Equal(hrep.Slice) || !full.Slice.Equal(orep.Slice) {
		log.Fatal("SOUNDNESS BUG: slices differ") // never happens
	}

	fmt.Println("statements that influenced the wrong total:")
	lines := map[int]bool{}
	orep.Slice.Instrs.ForEach(func(id int) bool {
		lines[prog.Instrs[id].Pos.Line] = true
		return true
	})
	var ls []int
	for l := range lines {
		ls = append(ls, l)
	}
	sort.Ints(ls)
	srcLines := strings.Split(src, "\n")
	for _, l := range ls {
		txt := strings.TrimSpace(srcLines[l-1])
		if txt == "" || strings.HasPrefix(txt, "//") {
			continue
		}
		fmt.Printf("  line %2d: %s\n", l, txt)
	}
	fmt.Println("\nnote: the audit-trail loop is absent — the optimistic slicer")
	fmt.Println("never traced it, yet the slice still pinpoints the truncating")
	fmt.Println("discount on the 'charge - charge / 10' line.")
}
