package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"gqbe/internal/snapio"
	"gqbe/internal/testkg"
)

// FuzzReadSnapshot feeds arbitrary bytes to the snapshot decoder. The
// contract under test is the one the sentinels invariant enforces:
// corruption never panics, and every failure surfaces as one of snapio's
// typed sentinels so the daemon's corrupt-snapshot fallback can classify it
// with errors.Is.
//
// It is also a differential test of the one decoder over its two byte
// sources: an input the heap load (owned bytes, every interior check)
// accepts must open mapped too (interior scans skipped), and both engines
// must re-serialize to the same bytes.
func FuzzReadSnapshot(f *testing.F) {
	eng := NewEngine(testkg.Fig1())
	var buf bytes.Buffer
	if err := eng.WriteSnapshot(&buf); err != nil {
		f.Fatalf("writing seed snapshot: %v", err)
	}
	valid := bytes.Clone(buf.Bytes())
	shard, err := eng.WithShard(1, 2)
	if err != nil {
		f.Fatal(err)
	}
	buf.Reset()
	if err := shard.WriteSnapshot(&buf); err != nil {
		f.Fatalf("writing v3 seed snapshot: %v", err)
	}
	validV3 := buf.Bytes()

	f.Add([]byte{})
	f.Add([]byte("GQBESNAP"))
	f.Add([]byte("NOTASNAP file"))
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-1])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x40
	f.Add(flipped)
	f.Add(append(append([]byte(nil), valid...), 0x00))
	f.Add(validV3)

	sentinels := []error{
		snapio.ErrBadMagic,
		snapio.ErrVersion,
		snapio.ErrChecksum,
		snapio.ErrTruncated,
		snapio.ErrCorrupt,
		snapio.ErrTooLarge,
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		eng, err := ReadSnapshot(bytes.NewReader(data))
		if err == nil {
			if eng == nil {
				t.Fatal("nil engine with nil error")
			}
			if eng.Graph() == nil || eng.Store() == nil {
				t.Fatal("accepted snapshot yields incomplete engine")
			}
			checkMappedAgrees(t, eng, data)
			return
		}
		if eng != nil {
			t.Fatalf("non-nil engine alongside error %v", err)
		}
		for _, s := range sentinels {
			if errors.Is(err, s) {
				return
			}
		}
		t.Fatalf("error %v (%T) wraps no snapio sentinel", err, err)
	})
}

// checkMappedAgrees opens bytes the heap load accepted through the mapped
// path and requires it to accept them too, with both engines writing the
// same snapshot back out.
func checkMappedAgrees(t *testing.T, heap *Engine, data []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "fuzz.snap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	mapped, err := OpenSnapshotMapped(path)
	if errors.Is(err, snapio.ErrMapUnsupported) {
		return
	}
	if err != nil {
		t.Fatalf("heap load accepted the input, mapped open did not: %v", err)
	}
	defer mapped.Close()
	var a, b bytes.Buffer
	if err := heap.WriteSnapshot(&a); err != nil {
		t.Fatalf("re-serializing heap engine: %v", err)
	}
	if err := mapped.WriteSnapshot(&b); err != nil {
		t.Fatalf("re-serializing mapped engine: %v", err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("heap and mapped engines re-serialize differently (%d vs %d bytes)", a.Len(), b.Len())
	}
}
