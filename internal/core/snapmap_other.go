//go:build !unix

package core

import (
	"os"
	"sync/atomic"
)

// snapMapping is the heap-read fallback for platforms without mmap: the
// whole file is read into ordinary Go memory and "close" is a no-op.
type snapMapping struct {
	data    []byte
	mapped  bool
	holders atomic.Int64
}

func mapSnapshot(path string) (*snapMapping, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return &snapMapping{data: raw}, nil
}

func (m *snapMapping) close() {
	m.data = nil
}

func (m *snapMapping) residentBytes() int64 { return 0 }
