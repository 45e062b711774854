#include "trace/serialize.hh"

#include "common/faultio.hh"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cstring>

namespace constable {

namespace {

// Magic numbers lead every file so a wrong-type or zero-length file is
// rejected before any payload parsing.
constexpr uint32_t kTraceMagic = 0x43545243;    // "CTRC"
constexpr uint32_t kResultMagic = 0x43525253;   // "CRRS"
constexpr uint32_t kManifestMagic = 0x464d5343; // "CSMF"

/** Little-endian append-only encoder. */
class ByteWriter
{
  public:
    void
    u8(uint8_t v)
    {
        buf_.push_back(v);
    }

    void
    u32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }

    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
    }

    void
    f64(double v)
    {
        u64(std::bit_cast<uint64_t>(v));
    }

    void
    str(const std::string& s)
    {
        u32(static_cast<uint32_t>(s.size()));
        buf_.insert(buf_.end(), s.begin(), s.end());
    }

    /** Append the checksum of everything written so far. */
    void
    sealChecksum()
    {
        u64(fnv1a(buf_.data(), buf_.size()));
    }

    std::vector<uint8_t> take() { return std::move(buf_); }
    const std::vector<uint8_t>& bytes() const { return buf_; }

  private:
    std::vector<uint8_t> buf_;
};

/** Bounds-checked decoder; every read reports success so callers bail out
 *  cleanly on truncated input instead of reading past the end. */
class ByteReader
{
  public:
    ByteReader(const uint8_t* data, size_t n) : data_(data), n_(n) {}

    bool
    u8(uint8_t& v)
    {
        if (pos_ + 1 > n_)
            return false;
        v = data_[pos_++];
        return true;
    }

    // Multi-byte reads go through memcpy, never a reinterpret_cast of
    // data_ + pos_: the buffer may be an mmap view at arbitrary offset
    // (loadTrace), where a cast load is an unaligned access UBSan rejects.
    // memcpy compiles to a single load on every target we build for, and
    // the explicit byteswap keeps the on-disk format little-endian.
    bool
    u32(uint32_t& v)
    {
        if (pos_ + 4 > n_)
            return false;
        std::memcpy(&v, data_ + pos_, 4);
        if constexpr (std::endian::native == std::endian::big)
            v = __builtin_bswap32(v);
        pos_ += 4;
        return true;
    }

    bool
    u64(uint64_t& v)
    {
        if (pos_ + 8 > n_)
            return false;
        std::memcpy(&v, data_ + pos_, 8);
        if constexpr (std::endian::native == std::endian::big)
            v = __builtin_bswap64(v);
        pos_ += 8;
        return true;
    }

    bool
    f64(double& v)
    {
        uint64_t bits;
        if (!u64(bits))
            return false;
        v = std::bit_cast<double>(bits);
        return true;
    }

    bool
    str(std::string& s)
    {
        uint32_t len;
        if (!u32(len) || pos_ + len > n_)
            return false;
        s.assign(reinterpret_cast<const char*>(data_ + pos_), len);
        pos_ += len;
        return true;
    }

    size_t remaining() const { return n_ - pos_; }

  private:
    const uint8_t* data_;
    size_t n_;
    size_t pos_ = 0;
};

/** Split payload from trailing checksum and verify it. */
bool
checkedPayload(const uint8_t* bytes, size_t n, size_t& payload_len)
{
    if (n < 8)
        return false;
    payload_len = n - 8;
    ByteReader tail(bytes + payload_len, 8);
    uint64_t want;
    tail.u64(want);
    return fnv1a(bytes, payload_len) == want;
}

void
putOp(ByteWriter& w, const MicroOp& op)
{
    w.u64(op.pc);
    w.u8(static_cast<uint8_t>(op.cls));
    w.u8(static_cast<uint8_t>(op.addrMode));
    for (uint8_t s : op.src)
        w.u8(s);
    w.u8(op.dst);
    w.u8(op.size);
    w.u64(op.effAddr);
    w.u64(op.value);
    w.u8(op.taken ? 1 : 0);
    w.u64(op.target);
}

/** Decode one op; false on truncation or on any field out of range. The
 *  checksum only proves the bytes are the ones written, so a field the
 *  core indexes by (registers against its rename map, the class and mode
 *  enums) must be checked here before it reaches the pipeline. */
bool
getOp(ByteReader& r, unsigned num_arch_regs, MicroOp& op)
{
    uint8_t cls, mode, taken;
    bool ok = r.u64(op.pc) && r.u8(cls) && r.u8(mode) && r.u8(op.src[0]) &&
              r.u8(op.src[1]) && r.u8(op.src[2]) && r.u8(op.dst) &&
              r.u8(op.size) && r.u64(op.effAddr) && r.u64(op.value) &&
              r.u8(taken) && r.u64(op.target);
    if (!ok || cls > static_cast<uint8_t>(OpClass::Nop) ||
        mode > static_cast<uint8_t>(AddrMode::RegRel) || taken > 1 ||
        op.size < 1 || op.size > 8)
        return false;
    auto regOk = [num_arch_regs](uint8_t reg) {
        return reg == kNoReg || reg < num_arch_regs;
    };
    if (!regOk(op.dst) || !std::all_of(op.src.begin(), op.src.end(), regOk))
        return false;
    op.cls = static_cast<OpClass>(cls);
    op.addrMode = static_cast<AddrMode>(mode);
    op.taken = taken != 0;
    return true;
}

} // namespace

uint64_t
fnv1a(const uint8_t* data, size_t n)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (size_t i = 0; i < n; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ull;
    }
    return h;
}

uint64_t
fnv1a(const std::string& s)
{
    return fnv1a(reinterpret_cast<const uint8_t*>(s.data()), s.size());
}

std::string
sanitizeFileName(std::string name)
{
    for (char& c : name) {
        bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_' ||
                    c == '.';
        if (!keep)
            c = '_';
    }
    return name;
}

uint64_t
traceContentHash(const Trace& t)
{
    auto bytes = serializeTrace(t);
    return fnv1a(bytes.data(), bytes.size());
}

// ---------------------------------------------------------------- traces

std::vector<uint8_t>
serializeTrace(const Trace& t)
{
    ByteWriter w;
    w.u32(kTraceMagic);
    w.u32(kSerializeVersion);
    w.str(t.name);
    w.str(t.category);
    w.u32(t.numArchRegs);
    w.u64(t.ops.size());
    for (const MicroOp& op : t.ops)
        putOp(w, op);
    w.u64(t.snoops.size());
    for (const SnoopEvent& s : t.snoops) {
        w.u64(s.beforeSeq);
        w.u64(s.addr);
    }
    w.sealChecksum();
    return w.take();
}

bool
deserializeTrace(const uint8_t* bytes, size_t n, Trace& out)
{
    size_t payload;
    if (!checkedPayload(bytes, n, payload))
        return false;
    ByteReader r(bytes, payload);
    uint32_t magic, version;
    if (!r.u32(magic) || magic != kTraceMagic || !r.u32(version) ||
        version != kSerializeVersion)
        return false;
    Trace t;
    uint32_t regs;
    uint64_t nOps, nSnoops;
    if (!r.str(t.name) || !r.str(t.category) || !r.u32(regs) ||
        (regs != kNumArchRegs && regs != kNumArchRegsApx) || !r.u64(nOps))
        return false;
    t.numArchRegs = regs;
    // Per-op payload is 40 bytes; reject absurd counts before reserving.
    if (nOps > r.remaining() / 40 + 1)
        return false;
    t.ops.resize(nOps);
    for (MicroOp& op : t.ops) {
        if (!getOp(r, regs, op))
            return false;
    }
    if (!r.u64(nSnoops) || nSnoops > r.remaining() / 16 + 1)
        return false;
    t.snoops.resize(nSnoops);
    for (SnoopEvent& s : t.snoops) {
        if (!r.u64(s.beforeSeq) || !r.u64(s.addr))
            return false;
    }
    if (r.remaining() != 0)
        return false;
    out = std::move(t);
    return true;
}

bool
deserializeTrace(const std::vector<uint8_t>& bytes, Trace& out)
{
    return deserializeTrace(bytes.data(), bytes.size(), out);
}

bool
saveTrace(const std::string& path, const Trace& t)
{
    if (faultFailed("trace.cache.write"))
        return false;
    return writeFileAtomic(path, serializeTrace(t));
}

bool
loadTrace(const std::string& path, Trace& out)
{
    if (faultFailed("trace.cache.read"))
        return false;
    // Fast path: decode straight out of a read-only mapping (no whole-file
    // heap copy per warm-suite load). Any failure (open, stat, empty file,
    // mmap) falls back to the buffered read below rather than reporting an
    // error of its own.
    // lint:rawio mmap needs a raw fd; trace.cache.read guards the site
    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd >= 0) {
        struct stat st;
        if (::fstat(fd, &st) == 0 && st.st_size > 0) {
            size_t n = static_cast<size_t>(st.st_size);
            void* map = ::mmap(nullptr, n, PROT_READ, MAP_PRIVATE, fd, 0);
            if (map != MAP_FAILED) {
                bool ok = deserializeTrace(
                    static_cast<const uint8_t*>(map), n, out);
                ::munmap(map, n);
                ::close(fd);
                return ok;
            }
        }
        ::close(fd);
    }
    std::vector<uint8_t> bytes;
    return readFileBytes(path, bytes) && deserializeTrace(bytes, out);
}

// ------------------------------------------------------------ run results

std::vector<uint8_t>
serializeRunResult(const RunResult& r)
{
    ByteWriter w;
    w.u32(kResultMagic);
    w.u32(kSerializeVersion);
    w.u64(r.cycles);
    w.u64(r.instructions);
    for (uint64_t v : r.threadInstructions)
        w.u64(v);
    for (Cycle v : r.threadFinishCycle)
        w.u64(v);
    w.u8(r.goldenCheckFailed ? 1 : 0);
    w.str(r.goldenCheckMessage);
    // std::map iterates name-ordered, so the encoding is deterministic.
    w.u64(r.stats.all().size());
    for (const auto& [name, value] : r.stats.all()) {
        w.str(name);
        w.f64(value);
    }
    w.sealChecksum();
    return w.take();
}

bool
deserializeRunResult(const std::vector<uint8_t>& bytes, RunResult& out)
{
    size_t payload;
    if (!checkedPayload(bytes.data(), bytes.size(), payload))
        return false;
    ByteReader r(bytes.data(), payload);
    uint32_t magic, version;
    if (!r.u32(magic) || magic != kResultMagic || !r.u32(version) ||
        version != kSerializeVersion)
        return false;
    RunResult res;
    uint8_t failed;
    uint64_t nStats;
    if (!r.u64(res.cycles) || !r.u64(res.instructions) ||
        !r.u64(res.threadInstructions[0]) ||
        !r.u64(res.threadInstructions[1]) ||
        !r.u64(res.threadFinishCycle[0]) ||
        !r.u64(res.threadFinishCycle[1]) || !r.u8(failed) ||
        !r.str(res.goldenCheckMessage) || !r.u64(nStats))
        return false;
    res.goldenCheckFailed = failed != 0;
    for (uint64_t i = 0; i < nStats; ++i) {
        std::string name;
        double value;
        if (!r.str(name) || !r.f64(value))
            return false;
        res.stats.set(name, value);
    }
    if (r.remaining() != 0)
        return false;
    out = std::move(res);
    return true;
}

bool
saveRunResult(const std::string& path, const RunResult& r, bool durable)
{
    if (faultFailed("ckpt.cell.commit"))
        return false;
    return writeFileAtomic(path, serializeRunResult(r), durable);
}

bool
loadRunResult(const std::string& path, RunResult& out)
{
    if (faultFailed("ckpt.cell.read"))
        return false;
    std::vector<uint8_t> bytes;
    return readFileBytes(path, bytes) && deserializeRunResult(bytes, out);
}

// ------------------------------------------------- multi-process sweep files

std::vector<uint8_t>
serializeManifest(const SweepManifest& m)
{
    ByteWriter w;
    w.u32(kManifestMagic);
    w.u32(kSerializeVersion);
    w.str(m.experiment);
    w.u64(m.suiteHash);
    w.u8(m.smt ? 1 : 0);
    w.u64(m.numRows);
    w.u64(m.numConfigs);
    w.u64(m.configNames.size());
    for (const std::string& n : m.configNames)
        w.str(n);
    w.sealChecksum();
    return w.take();
}

bool
deserializeManifest(const std::vector<uint8_t>& bytes, SweepManifest& out)
{
    size_t payload;
    if (!checkedPayload(bytes.data(), bytes.size(), payload))
        return false;
    ByteReader r(bytes.data(), payload);
    uint32_t magic, version;
    if (!r.u32(magic) || magic != kManifestMagic || !r.u32(version) ||
        version != kSerializeVersion)
        return false;
    SweepManifest m;
    uint8_t smt;
    uint64_t nNames;
    if (!r.str(m.experiment) || !r.u64(m.suiteHash) || !r.u8(smt) ||
        !r.u64(m.numRows) || !r.u64(m.numConfigs) || !r.u64(nNames) ||
        nNames > r.remaining() / 4 + 1)
        return false;
    m.smt = smt != 0;
    m.configNames.resize(nNames);
    for (std::string& n : m.configNames) {
        if (!r.str(n))
            return false;
    }
    if (r.remaining() != 0)
        return false;
    out = std::move(m);
    return true;
}

bool
saveManifest(const std::string& path, const SweepManifest& m)
{
    if (faultFailed("sweep.manifest.write"))
        return false;
    return writeFileAtomic(path, serializeManifest(m), /*durable=*/true);
}

bool
loadManifest(const std::string& path, SweepManifest& out)
{
    if (faultFailed("sweep.manifest.read"))
        return false;
    std::vector<uint8_t> bytes;
    return readFileBytes(path, bytes) && deserializeManifest(bytes, out);
}

// ----------------------------------------------------------- cache keying

uint64_t
specHash(const WorkloadSpec& s)
{
    // Serialize every field in declaration order and hash the bytes. New
    // WorkloadSpec fields must be appended here — kSerializeVersion guards
    // encoding changes, and test_experiment locks the field count.
    ByteWriter w;
    w.u32(kSerializeVersion);
    w.str(s.name);
    w.str(s.category);
    w.u64(s.seed);
    w.u64(s.targetOps);
    w.u32(s.numArchRegs);
    w.u32(s.nGlobalConst);
    w.u32(s.globalsPerFrag);
    w.u32(s.globalMutatePeriod);
    w.u32(s.globalBursts);
    w.u32(s.nInlinedOnce);
    w.u32(s.nInlinedSilent);
    w.u32(s.nInlinedChanging);
    w.u32(s.inlinedArgs);
    w.u32(s.inlinedBodyOps);
    w.u32(s.inlinedBursts);
    w.u32(s.nObject);
    w.u32(s.objectFields);
    w.u32(s.objectIters);
    w.u32(s.objectBursts);
    w.u32(s.objectRewritePeriod);
    w.u8(s.objectAccum ? 1 : 0);
    w.u32(s.nCall);
    w.u32(s.callParams);
    w.u8(static_cast<uint8_t>(s.callMode));
    w.u32(s.callBursts);
    w.u32(s.nStream);
    w.u32(s.streamElems);
    w.u32(s.streamBursts);
    w.u32(s.nStrided);
    w.u32(s.stridedElems);
    w.u32(s.nChase);
    w.u32(s.chaseSteps);
    w.u32(s.chaseFootprintKB);
    w.u32(s.nPredChase);
    w.u32(s.predChaseSteps);
    w.u32(s.predChaseFootprintKB);
    w.u32(s.nAccum);
    w.u32(s.accumCounters);
    w.u32(s.accumBursts);
    w.u32(s.nBranchy);
    w.u32(s.branchBranches);
    w.f64(s.branchRandomFrac);
    w.u32(s.footprintKB);
    w.f64(s.snoopPerKilOp);
    const auto& bytes = w.bytes();
    return fnv1a(bytes.data(), bytes.size());
}

std::string
traceCachePath(const std::string& dir, const WorkloadSpec& spec)
{
    std::string name = sanitizeFileName(spec.name);
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(specHash(spec)));
    return dir + "/" + name + "-" + hex + ".trace";
}

} // namespace constable
