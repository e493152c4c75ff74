package xmltree_test

import (
	"strings"
	"testing"
	"testing/quick"

	"xpathviews/internal/xmltree"
)

func TestBuildAndWalk(t *testing.T) {
	tr := xmltree.New("a")
	b := tr.AddChild(tr.Root(), "b")
	tr.AddChild(b, "c")
	tr.AddChild(tr.Root(), "d")
	tr.Renumber()

	if tr.Size() != 4 {
		t.Fatalf("size = %d, want 4", tr.Size())
	}
	var order []string
	tr.Walk(func(n *xmltree.Node) bool {
		order = append(order, n.Label)
		return true
	})
	if strings.Join(order, "") != "abcd" {
		t.Fatalf("preorder = %v", order)
	}
	if got := tr.Root().String(); got != "a(b(c),d)" {
		t.Fatalf("String = %q", got)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWalkEarlyStop(t *testing.T) {
	tr := xmltree.New("a")
	tr.AddChild(tr.Root(), "b")
	tr.AddChild(tr.Root(), "c")
	tr.Renumber()
	count := 0
	tr.Walk(func(n *xmltree.Node) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("visited %d nodes, want 2", count)
	}
}

func TestAncestryHelpers(t *testing.T) {
	tr := xmltree.New("a")
	b := tr.AddChild(tr.Root(), "b")
	c := tr.AddChild(b, "c")
	tr.Renumber()
	if c.Depth() != 2 || tr.Root().Depth() != 0 {
		t.Fatal("depth wrong")
	}
	if got := strings.Join(c.LabelPath(), "/"); got != "a/b/c" {
		t.Fatalf("LabelPath = %s", got)
	}
	if b.SubtreeSize() != 2 {
		t.Fatalf("SubtreeSize = %d", b.SubtreeSize())
	}
}

func TestCopySubtree(t *testing.T) {
	tr := xmltree.New("a")
	b := tr.AddChild(tr.Root(), "b")
	b.SetAttr("k", "v")
	b.Text = "hello"
	tr.AddChild(b, "c")
	tr.Renumber()

	cp := b.CopySubtree()
	if cp.Parent != nil {
		t.Fatal("copy root must be detached")
	}
	if v, _ := cp.Attr("k"); v != "v" || cp.Text != "hello" || len(cp.Children) != 1 {
		t.Fatal("copy lost data")
	}
	cp.Children[0].Label = "changed"
	if b.Children[0].Label != "c" {
		t.Fatal("copy aliases the original")
	}
}

func TestParseSerializeRoundTrip(t *testing.T) {
	src := `<site><people><person id="p1"><name>Ann</name></person></people><regions/></site>`
	tr, err := xmltree.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Size() != 5 {
		t.Fatalf("size = %d, want 5", tr.Size())
	}
	out, err := xmltree.MarshalString(tr.Root())
	if err != nil {
		t.Fatal(err)
	}
	back, err := xmltree.ParseString(out)
	if err != nil {
		t.Fatalf("reparse %q: %v", out, err)
	}
	if back.Size() != tr.Size() {
		t.Fatalf("round trip changed size: %d vs %d", back.Size(), tr.Size())
	}
	person := back.Nodes()[2]
	if person.Label != "person" {
		t.Fatalf("node order changed: %v", person.Label)
	}
	if v, ok := person.Attr("id"); !ok || v != "p1" {
		t.Fatal("attribute lost in round trip")
	}
}

func TestParseErrors(t *testing.T) {
	for _, bad := range []string{
		"", "<a>", "<a></b>", "</a>", "<a></a><b></b>", "text only",
	} {
		if _, err := xmltree.ParseString(bad); err == nil {
			t.Errorf("ParseString(%q) unexpectedly succeeded", bad)
		}
	}
}

func TestSerializedSizeTracksEncoder(t *testing.T) {
	src := `<a k="v"><b>text</b><c/><c x="1">more</c></a>`
	tr, err := xmltree.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	est := xmltree.SerializedSize(tr.Root())
	exact := xmltree.EncodedSize(tr.Root())
	if est <= 0 || exact <= 0 {
		t.Fatal("sizes must be positive")
	}
	ratio := float64(est) / float64(exact)
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("estimate %d too far from exact %d", est, exact)
	}
}

func TestAlphabetAndStats(t *testing.T) {
	tr := xmltree.New("a")
	tr.AddChild(tr.Root(), "b")
	tr.AddChild(tr.Root(), "b")
	c := tr.AddChild(tr.Root(), "c")
	tr.AddChild(c, "d")
	tr.Renumber()
	alpha := tr.Alphabet()
	if strings.Join(alpha, "") != "abcd" {
		t.Fatalf("alphabet = %v", alpha)
	}
	st := tr.Stats()
	if st.Nodes != 5 || st.MaxDepth != 2 || st.Labels != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestQuickTextRoundTrip(t *testing.T) {
	// Character data with XML-significant characters must survive
	// serialization.
	f := func(text string) bool {
		tr := xmltree.New("a")
		tr.Root().Text = strings.ToValidUTF8(strings.Map(dropControl, text), "")
		tr.Renumber()
		out, err := xmltree.MarshalString(tr.Root())
		if err != nil {
			return false
		}
		back, err := xmltree.ParseString(out)
		if err != nil {
			return false
		}
		return back.Root().Text == strings.TrimSpace(tr.Root().Text)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func dropControl(r rune) rune {
	if r < 0x20 && r != '\t' {
		return -1
	}
	return r
}

func TestValidateDetectsBrokenLinks(t *testing.T) {
	tr := xmltree.New("a")
	b := tr.AddChild(tr.Root(), "b")
	b.Parent = nil // corrupt
	if err := tr.Validate(); err == nil {
		t.Fatal("Validate missed a broken parent link")
	}
}
