package resilience

import "testing"

func TestTokenBudgetSpendEarnCap(t *testing.T) {
	b := NewTokenBudget(0.5, 2)
	if !b.Spend() || !b.Spend() {
		t.Fatal("a fresh budget must grant burst spends")
	}
	if b.Spend() {
		t.Fatal("spend from an empty budget granted")
	}
	b.Earn()
	if b.Spend() {
		t.Fatal("half a token granted a spend")
	}
	b.Earn()
	if !b.Spend() {
		t.Fatal("two earns at ratio 0.5 must grant one spend")
	}
	for i := 0; i < 10; i++ {
		b.Earn()
	}
	if !b.Spend() || !b.Spend() || b.Spend() {
		t.Fatal("earned tokens must cap at burst")
	}

	// At the retry and hedge default ratio 0.1 a token costs exactly ten
	// successes: nine earns grant nothing, the tenth grants one spend.
	b = NewTokenBudget(0.1, 10)
	for b.Spend() {
	}
	for i := 0; i < 9; i++ {
		b.Earn()
	}
	if b.Spend() {
		t.Fatal("nine earns at ratio 0.1 granted a spend")
	}
	b.Earn()
	if !b.Spend() {
		t.Fatal("ten earns at ratio 0.1 must grant one spend")
	}
}
