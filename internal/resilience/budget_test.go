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
}
