package diag

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// Report is the result of validating one bundle: its parsed manifest, the
// bundle files loaded into memory (so callers can run deeper checks —
// trace validation, request replay — without re-reading the disk), and
// one line per integrity problem. An empty Problems slice means the
// bundle's bytes match its manifest and its ID matches its content.
type Report struct {
	Path     string
	Manifest Manifest
	Files    map[string][]byte
	Problems []string
}

// OK reports whether validation found no problems.
func (r *Report) OK() bool { return len(r.Problems) == 0 }

// Validate opens a bundle directory and checks its integrity: every manifest entry exists with
// the recorded size and SHA-256, no unlisted payload files are present,
// and the bundle ID matches the content hash recomputed from the files.
// Integrity violations land in Report.Problems; only failures to read or
// parse the bundle at all return an error.
func Validate(path string) (*Report, error) {
	files, err := loadBundle(path)
	if err != nil {
		return nil, err
	}
	rep := &Report{Path: path, Files: files}
	manData, ok := files[ManifestName]
	if !ok {
		return nil, fmt.Errorf("diag: %s: no %s", path, ManifestName)
	}
	if err := json.Unmarshal(manData, &rep.Manifest); err != nil {
		return nil, fmt.Errorf("diag: %s: %s: %w", path, ManifestName, err)
	}
	man := rep.Manifest
	if man.Version != ManifestVersion {
		rep.Problems = append(rep.Problems,
			fmt.Sprintf("manifest version %d, this tool understands %d", man.Version, ManifestVersion))
	}
	listed := make(map[string]bool, len(man.Files))
	for _, fe := range man.Files {
		listed[fe.Name] = true
		data, ok := files[fe.Name]
		if !ok {
			rep.Problems = append(rep.Problems, fmt.Sprintf("%s: listed in manifest but missing", fe.Name))
			continue
		}
		if int64(len(data)) != fe.Bytes {
			rep.Problems = append(rep.Problems,
				fmt.Sprintf("%s: %d bytes, manifest says %d", fe.Name, len(data), fe.Bytes))
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != fe.SHA256 {
			rep.Problems = append(rep.Problems,
				fmt.Sprintf("%s: sha256 %s, manifest says %s", fe.Name, got, fe.SHA256))
		}
	}
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if name != ManifestName && !listed[name] {
			rep.Problems = append(rep.Problems, fmt.Sprintf("%s: present but not in manifest", name))
		}
	}
	if got := bundleID(man.Files); got != man.ID {
		rep.Problems = append(rep.Problems,
			fmt.Sprintf("bundle id %s does not match content hash %s", man.ID, got))
	}
	return rep, nil
}

// loadBundle reads a bundle directory into memory.
func loadBundle(path string) (map[string][]byte, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("diag: %w", err)
	}
	if !fi.IsDir() {
		return nil, fmt.Errorf("diag: %s: not a bundle directory", path)
	}
	ents, err := os.ReadDir(path)
	if err != nil {
		return nil, fmt.Errorf("diag: %w", err)
	}
	files := make(map[string][]byte, len(ents))
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(path, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("diag: %w", err)
		}
		files[e.Name()] = data
	}
	return files, nil
}
