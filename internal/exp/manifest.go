package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// SweepState is the Runner's crash-safe durability backend: an
// append-only manifest of completed cells plus one output file per cell.
//
// The write protocol makes a SIGKILL at any instant recoverable: a cell's
// output is first written to a temp file and renamed into place
// (cells/NNNNNN.out), and only then is its "key hash" line appended to
// the manifest under a mutex. A kill between the two leaves an orphan
// output file with no manifest line — ignored on resume, the cell just
// reruns. A kill mid-append leaves a torn last line — dropped on resume.
// The manifest therefore never claims output that is not fully on disk.
//
// The manifest's first line is the sweep signature (experiment identity
// plus every option that shapes the output: duration, size, quick mode,
// seed — parallelism settings are excluded because output is
// parallelism-independent). Resume refuses a state directory whose
// signature does not match: a checkpointed sweep is only resumable by the
// same sweep.
type SweepState struct {
	dir  string
	mu   sync.Mutex
	mf   *os.File
	done map[int]string // cell key -> output hash
}

// OpenSweepState opens (resume) or initializes (fresh) the durability
// state for one sweep. A fresh open truncates any previous manifest, so
// stale cell files from an older run can never be mistaken for current
// ones. Resume with no manifest on disk degrades to a fresh start.
func OpenSweepState(dir, signature string, resume bool) (*SweepState, error) {
	if strings.ContainsAny(signature, "\n\r") {
		return nil, fmt.Errorf("exp: sweep signature must be a single line")
	}
	if err := os.MkdirAll(filepath.Join(dir, "cells"), 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, "manifest")
	s := &SweepState{dir: dir, done: make(map[int]string)}
	if resume {
		raw, err := os.ReadFile(path)
		switch {
		case err == nil:
			text := string(raw)
			// A SIGKILL mid-append can leave a torn final line; drop
			// everything after the last complete line before appending.
			if cut := strings.LastIndexByte(text, '\n'); cut >= 0 {
				if cut+1 < len(text) {
					if err := os.Truncate(path, int64(cut+1)); err != nil {
						return nil, err
					}
				}
				text = text[:cut]
			} else {
				text = ""
			}
			lines := strings.Split(text, "\n")
			if len(lines) == 0 || lines[0] != signature {
				got := ""
				if len(lines) > 0 {
					got = lines[0]
				}
				return nil, fmt.Errorf("exp: state dir %s holds a different sweep (manifest signature %q, want %q)", dir, got, signature)
			}
			for _, ln := range lines[1:] {
				var key int
				var hash string
				if _, err := fmt.Sscanf(ln, "%d %s", &key, &hash); err == nil {
					s.done[key] = hash
				}
			}
			mf, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, err
			}
			s.mf = mf
			return s, nil
		case !os.IsNotExist(err):
			return nil, err
		}
		// No manifest yet: nothing to resume, start fresh below.
	}
	mf, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := fmt.Fprintln(mf, signature); err != nil {
		mf.Close()
		return nil, err
	}
	s.mf = mf
	return s, nil
}

func (s *SweepState) cellPath(key int) string {
	return filepath.Join(s.dir, "cells", fmt.Sprintf("%06d.out", key))
}

// CachedOutput returns a completed cell's salvaged output. It re-verifies
// the recorded hash against the file on disk: any mismatch (torn write,
// manual tampering) reads as not-cached and the cell reruns.
func (s *SweepState) CachedOutput(key int) ([]byte, bool) {
	s.mu.Lock()
	hash, ok := s.done[key]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	b, err := os.ReadFile(s.cellPath(key))
	if err != nil || hashBytes(b) != hash {
		return nil, false
	}
	return b, true
}

// Record persists one completed cell: output file first (atomic via temp
// + rename), manifest line second. Safe to call from concurrent workers.
func (s *SweepState) Record(key int, out []byte) error {
	p := s.cellPath(key)
	tmp := p + ".tmp"
	if err := os.WriteFile(tmp, out, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, p); err != nil {
		return err
	}
	h := hashBytes(out)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := fmt.Fprintf(s.mf, "%d %s\n", key, h); err != nil {
		return err
	}
	s.done[key] = h
	return nil
}

// Close releases the manifest handle.
func (s *SweepState) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mf == nil {
		return nil
	}
	err := s.mf.Close()
	s.mf = nil
	return err
}

func hashBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
