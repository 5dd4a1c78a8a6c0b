// Package store is the persistent, content-addressed result store behind
// eventlensd's in-memory cache: a directory of checksummed entries, one per
// canonical analysis key, that survives daemon restarts and is shared-safe
// across replicas pointed at the same directory.
//
// The design follows three rules the serving tier depends on:
//
//   - Content addressing. An entry's file name is the hex SHA-256 of its
//     key — the canonical (benchmark, RunConfig, Config) rendering the
//     result cache already uses — so equal requests always resolve to the
//     same file and file names never need escaping.
//
//   - Atomic publication. Put writes to a temporary file in the same
//     directory and renames it into place. Readers therefore observe either
//     the complete previous entry or the complete new one, never a torn
//     write; concurrent writers of the same key race benignly because the
//     pipeline is deterministic and every writer carries identical bytes.
//
//   - Verified reads, degraded to misses. Every entry embeds the key it was
//     written for and a SHA-256 over its contents. A truncated file, a
//     flipped bit, a hash collision or garbage dropped into the directory
//     surfaces as ErrCorrupt — callers treat it as a cache miss and recompute;
//     the store never crashes the daemon and never serves wrong bytes.
//
// The package is stdlib-only and deterministic (no clocks, no randomness
// beyond os.CreateTemp's name selection, which never influences results);
// the nondetsrc analyzer enforces this.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// Sentinel errors callers branch on. Both mean "not served from disk"; they
// are distinct so observability can count corruption separately from cold
// misses.
var (
	// ErrNotExist reports that no entry exists for the key.
	ErrNotExist = errors.New("store: entry does not exist")
	// ErrCorrupt reports that an entry exists but failed verification
	// (truncated, checksum mismatch, wrong key, or not a store entry at all).
	ErrCorrupt = errors.New("store: entry corrupt")
)

// magic identifies a store entry file and versions its layout.
const magic = "evls1\n"

// entryExt suffixes every published entry; temporary files use tmpPattern
// and are ignored by readers and Len.
const (
	entryExt   = ".evs"
	tmpPattern = ".tmp-*"
)

// maxLen bounds the key and payload lengths a reader will believe. Anything
// larger is corruption by construction: analysis responses are a few KiB and
// keys are short canonical strings.
const maxLen = 1 << 30

// Store is a content-addressed result store rooted at one directory.
// The zero value is not usable; call Open.
type Store struct {
	dir string
}

// Open ensures dir exists and returns a store over it. An existing directory
// is adopted as-is — that is the restart-warming path.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Path returns the file an entry for key lives at (whether or not it exists).
func (s *Store) Path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, hex.EncodeToString(sum[:])+entryExt)
}

// encode renders one entry: magic, big-endian key and payload lengths, a
// SHA-256 over (keyLen, key, payLen, payload), then key and payload.
func encode(key string, payload []byte) []byte {
	var lens [8]byte
	binary.BigEndian.PutUint32(lens[0:4], uint32(len(key)))
	binary.BigEndian.PutUint32(lens[4:8], uint32(len(payload)))
	h := sha256.New()
	// hash.Hash.Write never returns an error per the hash contract.
	_, _ = h.Write(lens[:])
	_, _ = h.Write([]byte(key))
	_, _ = h.Write(payload)
	out := make([]byte, 0, len(magic)+8+sha256.Size+len(key)+len(payload))
	out = append(out, magic...)
	out = append(out, lens[:]...)
	out = h.Sum(out)
	out = append(out, key...)
	out = append(out, payload...)
	return out
}

// Put atomically publishes payload under key: the entry is written to a
// temporary file in the store directory and renamed into place, so readers
// never observe a partial write. Re-putting an existing key overwrites it
// atomically (writers of the same key are by construction writing the same
// bytes — the pipeline is deterministic).
func (s *Store) Put(key string, payload []byte) (err error) {
	if len(key) == 0 {
		return fmt.Errorf("store: empty key")
	}
	if len(key) > maxLen || len(payload) > maxLen {
		return fmt.Errorf("store: entry too large (key %d bytes, payload %d bytes)", len(key), len(payload))
	}
	dst := s.Path(key)
	tmp, err := os.CreateTemp(s.dir, filepath.Base(dst)+tmpPattern)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer func() {
		if err != nil {
			_ = tmp.Close()
			_ = os.Remove(tmp.Name())
		}
	}()
	if _, err = tmp.Write(encode(key, payload)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err = tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err = os.Rename(tmp.Name(), dst); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Get returns the payload stored under key. A missing entry returns
// ErrNotExist; an entry that fails any verification step returns ErrCorrupt.
// Both are misses to a cache layered above — neither is ever fatal.
func (s *Store) Get(key string) ([]byte, error) {
	raw, err := os.ReadFile(s.Path(key))
	if errors.Is(err, os.ErrNotExist) {
		return nil, ErrNotExist
	}
	if err != nil {
		// An unreadable entry (permissions, I/O error) degrades to a miss
		// too, but is reported as corruption so operators see it counted.
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	payload, err := decode(raw, key)
	if err != nil {
		return nil, err
	}
	return payload, nil
}

// decode verifies one raw entry against the key it was looked up by.
func decode(raw []byte, key string) ([]byte, error) {
	if len(raw) < len(magic)+8+sha256.Size {
		return nil, fmt.Errorf("%w: truncated header (%d bytes)", ErrCorrupt, len(raw))
	}
	if string(raw[:len(magic)]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	lens := raw[len(magic) : len(magic)+8]
	keyLen := binary.BigEndian.Uint32(lens[0:4])
	payLen := binary.BigEndian.Uint32(lens[4:8])
	if keyLen > maxLen || payLen > maxLen {
		return nil, fmt.Errorf("%w: implausible lengths (key %d, payload %d)", ErrCorrupt, keyLen, payLen)
	}
	body := raw[len(magic)+8+sha256.Size:]
	if uint64(len(body)) != uint64(keyLen)+uint64(payLen) {
		return nil, fmt.Errorf("%w: truncated body (%d bytes, want %d)", ErrCorrupt, len(body), keyLen+payLen)
	}
	storedKey := body[:keyLen]
	payload := body[keyLen:]
	h := sha256.New()
	_, _ = h.Write(lens)
	_, _ = h.Write(storedKey)
	_, _ = h.Write(payload)
	// A plain compare: the checksum guards against corruption, not adversaries.
	if !bytes.Equal(h.Sum(nil), raw[len(magic)+8:len(magic)+8+sha256.Size]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	if string(storedKey) != key {
		return nil, fmt.Errorf("%w: entry holds key %q", ErrCorrupt, storedKey)
	}
	return payload, nil
}

// Len counts published entries (temporary files are ignored). It exists for
// observability — a gauge of how warm the store is — so a scan error reports
// zero rather than failing a metrics request.
func (s *Store) Len() int {
	names, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range names {
		if !e.IsDir() && strings.HasSuffix(e.Name(), entryExt) {
			n++
		}
	}
	return n
}
