package fault

import (
	"errors"
	"fmt"
	"testing"
)

func TestKindNames(t *testing.T) {
	kinds := []Kind{UnmappedAccess, UndefInsn, StackOverflow, BudgetExceeded, JNIMisuse, MalformedDex, InternalError}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if seen[s] {
			t.Fatalf("duplicate kind name %q", s)
		}
		seen[s] = true
		back, ok := KindFromName(s)
		if !ok || back != k {
			t.Fatalf("KindFromName(%q) = %v, %v; want %v", s, back, ok, k)
		}
	}
	if _, ok := KindFromName("no-such-kind"); ok {
		t.Fatal("KindFromName accepted an unknown name")
	}
}

func TestFaultErrorChain(t *testing.T) {
	cause := errors.New("root cause")
	f := &Fault{Kind: UnmappedAccess, Layer: "arm", PC: 0x8004, Addr: 0x10, Detail: "wild store", Cause: cause}
	wrapped := fmt.Errorf("native method Lx;->f: %w", f)

	got, ok := Of(wrapped)
	if !ok || got != f {
		t.Fatalf("Of(wrapped) = %v, %v; want the original fault", got, ok)
	}
	if !errors.Is(wrapped, cause) {
		t.Fatal("cause not reachable through the fault's Unwrap")
	}
	if af := AsFault(wrapped, "core"); af != f {
		t.Fatalf("AsFault should pass through the existing fault, got %v", af)
	}
	plain := errors.New("plain failure")
	af := AsFault(plain, "core")
	if af.Kind != InternalError || af.Layer != "core" || !errors.Is(af, plain) {
		t.Fatalf("AsFault(plain) = %+v; want InternalError wrapping it", af)
	}
	if AsFault(nil, "core") != nil {
		t.Fatal("AsFault(nil) must be nil")
	}
}

func TestFromPanic(t *testing.T) {
	f := &Fault{Kind: BudgetExceeded, Layer: "dvm"}
	if got := FromPanic("core", f); got != f {
		t.Fatalf("FromPanic should pass a *Fault through, got %v", got)
	}
	if got := FromPanic("core", fmt.Errorf("wrap: %w", f)); got != f {
		t.Fatalf("FromPanic should unwrap a fault-carrying error, got %v", got)
	}
	got := FromPanic("core", "index out of range")
	if got.Kind != InternalError || got.Layer != "core" {
		t.Fatalf("FromPanic(string) = %+v; want core InternalError", got)
	}
}

func TestInjectionOnceSemantics(t *testing.T) {
	Reset()
	defer Reset()
	RegisterSite("test.site.a", "arm")
	RegisterSite("test.site.b", "dvm")

	if Armed() {
		t.Fatal("registry armed before Arm")
	}
	if f := Hit("test.site.a", 0); f != nil {
		t.Fatalf("unarmed Hit fired: %v", f)
	}
	if err := Arm("test.site.a", UndefInsn); err != nil {
		t.Fatal(err)
	}
	if !Armed() {
		t.Fatal("Enabled false after Arm")
	}
	if f := Hit("test.site.b", 0); f != nil {
		t.Fatalf("wrong site fired: %v", f)
	}
	f := Hit("test.site.a", 0x1234)
	if f == nil || f.Kind != UndefInsn || f.Layer != "arm" || f.Site != "test.site.a" || f.PC != 0x1234 {
		t.Fatalf("armed Hit = %+v; want UndefInsn at test.site.a pc=0x1234", f)
	}
	// Once-semantics: the site disarmed itself.
	if Armed() {
		t.Fatal("still armed after firing")
	}
	if f := Hit("test.site.a", 0); f != nil {
		t.Fatalf("fired twice: %v", f)
	}
	if Fired("test.site.a") != 1 || Fired("test.site.b") != 0 {
		t.Fatalf("fire counts = %d/%d; want 1/0", Fired("test.site.a"), Fired("test.site.b"))
	}
}

func TestArmNthCountdown(t *testing.T) {
	Reset()
	defer Reset()
	RegisterSite("test.site.nth", "dvm")
	if err := ArmNth("test.site.nth", MalformedDex, 3); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if f := Hit("test.site.nth", 0); f != nil {
			t.Fatalf("fired on hit %d; want 3rd", i+1)
		}
	}
	if f := Hit("test.site.nth", 0); f == nil || f.Kind != MalformedDex {
		t.Fatalf("3rd hit = %v; want MalformedDex", f)
	}
	if err := ArmNth("test.site.nth", MalformedDex, 0); err == nil {
		t.Fatal("ArmNth accepted n=0")
	}
	if err := Arm("no.such.site", UndefInsn); err == nil {
		t.Fatal("Arm accepted an unregistered site")
	}
}

func TestArmRandomDeterministic(t *testing.T) {
	Reset()
	defer Reset()
	RegisterSite("test.rand.a", "arm")
	RegisterSite("test.rand.b", "dvm")
	RegisterSite("test.rand.c", "core")
	first, err := ArmRandom(42, BudgetExceeded)
	if err != nil {
		t.Fatal(err)
	}
	DisarmAll()
	for i := 0; i < 5; i++ {
		again, err := ArmRandom(42, BudgetExceeded)
		if err != nil {
			t.Fatal(err)
		}
		if again != first {
			t.Fatalf("seed 42 chose %q then %q; want deterministic", first, again)
		}
		DisarmAll()
	}
}
