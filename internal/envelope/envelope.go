// Package envelope is the on-disk framing shared by MINARET's
// persistence files — the cache snapshot (internal/core) and the job
// store (internal/jobs): an 8-byte magic, a big-endian version, the
// payload length and a CRC-32C (Castagnoli) of the payload, then the
// payload itself. The checksum turns a torn write (power loss
// mid-save) into a clean load error instead of a half-restored state;
// the length cap stops a corrupted length field from allocating
// petabytes; WriteFileAtomic (synced temp file + rename + directory
// sync) guarantees a crash mid-save leaves the previous file intact,
// never a half-written one, and a completed save survives power loss.
package envelope

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// headerLen is the fixed envelope prefix: magic(8) + version(4) +
// payload length(8) + CRC-32C(4).
const headerLen = 24

// crcTable is the Castagnoli polynomial, hardware-accelerated on
// current CPUs.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Encode frames payload under the given 8-byte magic and version and
// writes it to w.
func Encode(w io.Writer, magic string, version uint32, payload []byte) error {
	if len(magic) != 8 {
		return fmt.Errorf("envelope: magic %q is %d bytes, want 8", magic, len(magic))
	}
	var header [headerLen]byte
	copy(header[:8], magic)
	binary.BigEndian.PutUint32(header[8:12], version)
	binary.BigEndian.PutUint64(header[12:20], uint64(len(payload)))
	binary.BigEndian.PutUint32(header[20:24], crc32.Checksum(payload, crcTable))
	if _, err := w.Write(header[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// Decode reads one envelope from r and returns its verified payload.
// A bad magic, unsupported version, payload beyond maxPayload,
// truncated payload or checksum mismatch rejects the file as a whole.
// kind names the file in error messages ("cache snapshot", "job
// store").
func Decode(r io.Reader, magic string, version uint32, maxPayload uint64, kind string) ([]byte, error) {
	_, payload, err := DecodeRange(r, magic, version, version, maxPayload, kind)
	return payload, err
}

// DecodeRange is Decode for formats that read several versions: any
// version in [minVersion, maxVersion] is accepted and returned
// alongside the payload, so the caller can interpret older layouts
// (e.g. a v1 job store read by a v2 process after new optional fields
// were added).
func DecodeRange(r io.Reader, magic string, minVersion, maxVersion uint32, maxPayload uint64, kind string) (uint32, []byte, error) {
	var header [headerLen]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return 0, nil, fmt.Errorf("%s header: %w", kind, err)
	}
	if string(header[:8]) != magic {
		return 0, nil, fmt.Errorf("not a minaret %s (bad magic)", kind)
	}
	version := binary.BigEndian.Uint32(header[8:12])
	if version < minVersion || version > maxVersion {
		if minVersion == maxVersion {
			return 0, nil, fmt.Errorf("%s version %d unsupported (want %d)", kind, version, minVersion)
		}
		return 0, nil, fmt.Errorf("%s version %d unsupported (want %d..%d)", kind, version, minVersion, maxVersion)
	}
	n := binary.BigEndian.Uint64(header[12:20])
	if n > maxPayload {
		return 0, nil, fmt.Errorf("%s payload of %d bytes exceeds limit", kind, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("%s payload: %w", kind, err)
	}
	if sum := crc32.Checksum(payload, crcTable); sum != binary.BigEndian.Uint32(header[20:24]) {
		return 0, nil, fmt.Errorf("%s checksum mismatch (file corrupt)", kind)
	}
	return version, payload, nil
}

// DecodeFile opens the envelope file at path and returns its verified
// payload. A missing file is the caller's normal cold start: ok=false,
// nil error. Every other failure — unreadable file, bad magic,
// unsupported version, truncation, checksum mismatch — carries the
// offending path in the error, so an operator triaging a directory of
// stores can see WHICH file is corrupt without reconstructing it from
// the call site.
func DecodeFile(path, magic string, version uint32, maxPayload uint64, kind string) (payload []byte, ok bool, err error) {
	_, payload, ok, err = DecodeFileRange(path, magic, version, version, maxPayload, kind)
	return payload, ok, err
}

// DecodeFileRange is DecodeFile for formats that read several versions
// (see DecodeRange). The decoded file's version is returned alongside
// the payload.
func DecodeFileRange(path, magic string, minVersion, maxVersion uint32, maxPayload uint64, kind string) (version uint32, payload []byte, ok bool, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return 0, nil, false, nil
	}
	if err != nil {
		return 0, nil, false, fmt.Errorf("%s %s: %w", kind, path, err)
	}
	defer f.Close()
	version, payload, err = DecodeRange(f, magic, minVersion, maxVersion, maxPayload, kind)
	if err != nil {
		return 0, nil, false, fmt.Errorf("%s: %w", path, err)
	}
	// A store file holds exactly one envelope (WriteFileAtomic replaces
	// the whole file). Bytes past the checksummed payload mean the file
	// was not written by us — reject rather than silently ignore them.
	var trail [1]byte
	if n, _ := f.Read(trail[:]); n != 0 {
		return 0, nil, false, fmt.Errorf("%s: %s trailing data after payload", path, kind)
	}
	return version, payload, true, nil
}

// WriteFileAtomic writes whatever write produces to path atomically and
// durably: a temp file in the same directory is synced to disk and
// renamed over the target, and the directory is synced so the rename
// survives power loss. A crash mid-save leaves the previous file
// intact; a failed save removes its temp file and leaves it intact too.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	err = write(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir flushes dir's entries, making a rename in it durable. Windows
// cannot sync a directory handle; there the rename is left to the file
// system.
func syncDir(dir string) error {
	if runtime.GOOS == "windows" {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
