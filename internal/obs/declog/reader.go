package declog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// parse scans data (which must start with the magic) and returns the
// decoded records plus the byte offset of the end of the last valid
// frame. A frame whose length runs past EOF, whose CRC mismatches, or
// whose payload fails to decode marks the torn tail: parsing stops there
// and the offset excludes it. Only a bad magic is a hard error — a file
// that is not a decision log at all — and a commit mode this build cannot
// replay (ErrCommitMode): that frame is intact, so cutting the log there
// would destroy a valid record. The records before it are returned with
// the error.
func parse(data []byte) (recs []Record, validEnd int64, err error) {
	if len(data) < len(Magic) || string(data[:len(Magic)]) != Magic {
		return nil, 0, fmt.Errorf("declog: bad magic (not a decision log)")
	}
	off := len(Magic)
	for {
		if len(data)-off < frameHeaderSize {
			return recs, int64(off), nil
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n > len(data)-off-frameHeaderSize {
			return recs, int64(off), nil // short frame: torn tail
		}
		payload := data[off+frameHeaderSize : off+frameHeaderSize+n]
		if crc32.Checksum(payload, castagnoli) != sum {
			return recs, int64(off), nil // corrupt frame
		}
		rec, decErr := decodeRecord(payload)
		if errors.Is(decErr, ErrCommitMode) {
			return recs, int64(off), decErr
		}
		if decErr != nil {
			return recs, int64(off), nil // undecodable frame
		}
		recs = append(recs, rec)
		off += frameHeaderSize + n
	}
}

// Read decodes a whole decision log stream. truncated reports whether a
// torn or corrupt tail was detected (and excluded from recs). On
// ErrCommitMode recs holds the records before the refused commit.
func Read(r io.Reader) (recs []Record, truncated bool, err error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, false, fmt.Errorf("declog: read: %w", err)
	}
	recs, validEnd, err := parse(data)
	if err != nil {
		return recs, false, err
	}
	return recs, validEnd < int64(len(data)), nil
}

// ReadFile decodes the decision log at path.
func ReadFile(path string) (recs []Record, truncated bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	return Read(f)
}

// OpenAppend opens (or creates) the decision log at path for continued
// writing: the valid record prefix is decoded and returned so the caller
// can replay it, a torn tail — a crash mid-append — is physically
// truncated away (counted in opts.Health), and the returned Writer
// appends after the last valid frame. A missing or empty file starts
// fresh; the caller is responsible for writing its Meta record then.
func OpenAppend(path string, opts Options) (*Writer, []Record, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("declog: %w", err)
	}
	data, err := io.ReadAll(f)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("declog: read: %w", err)
	}
	if len(data) == 0 {
		if _, err := f.Write([]byte(Magic)); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("declog: write magic: %w", err)
		}
		return newWriter(f, path, int64(len(Magic)), opts), nil, nil
	}
	recs, validEnd, err := parse(data)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	if validEnd < int64(len(data)) {
		if err := f.Truncate(validEnd); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("declog: truncate torn tail: %w", err)
		}
		opts.Health.DeclogTruncated()
	}
	if _, err := f.Seek(validEnd, io.SeekStart); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("declog: seek: %w", err)
	}
	return newWriter(f, path, validEnd, opts), recs, nil
}
