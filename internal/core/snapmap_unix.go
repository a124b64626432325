//go:build unix

package core

import (
	"os"
	"sync/atomic"
	"syscall"
)

// snapMapping holds a snapshot file's bytes, either mmap'd (PROT_READ,
// shared) or heap-read when mapping is unavailable. The forest and
// isochrones of every engine restored from it alias data, so it is
// unmapped only when its last holder releases it (Engine.ReleaseSnapshot),
// never by the garbage collector: slices into data do not keep it
// reachable.
type snapMapping struct {
	data    []byte
	mapped  bool
	holders atomic.Int64
}

// mapSnapshot maps path read-only. Zero-length and unmappable files fall
// back to a heap read so callers see uniform behaviour.
func mapSnapshot(path string) (*snapMapping, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size <= 0 || int64(int(size)) != size {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return &snapMapping{data: raw}, nil
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		raw, rerr := os.ReadFile(path)
		if rerr != nil {
			return nil, err
		}
		return &snapMapping{data: raw}, nil
	}
	return &snapMapping{data: data, mapped: true}, nil
}

func (m *snapMapping) close() {
	if m.mapped && m.data != nil {
		_ = syscall.Munmap(m.data)
	}
	m.data = nil
	m.mapped = false
}

// residentBytes reports how many bytes the mapping pins to the file; 0 for
// heap-read snapshots, whose memory is ordinary Go heap.
func (m *snapMapping) residentBytes() int64 {
	if m == nil || !m.mapped {
		return 0
	}
	return int64(len(m.data))
}
