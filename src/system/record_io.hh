/**
 * @file
 * Shared helpers for the flat on-disk record format.
 *
 * The run cache (system/run_cache.cc) and the service-layer job spool
 * (service/job_codec.cc) both persist small structured records as a
 * single flat JSON object whose values are decimal unsigned integers,
 * double-quoted strings, or arrays of decimal unsigned integers —
 * doubles travel as IEEE-754 bit patterns so round-trips are exact.
 * This header is the one implementation of that format:
 *
 *  - Fnv1a: incremental 64-bit FNV-1a over explicitly enumerated
 *    fields, with fixed-width little-endian integer serialization so
 *    digests are host-independent;
 *  - RecordParser: a strict parser for exactly the subset the writers
 *    emit.  Any deviation (truncation, corruption, foreign writer)
 *    fails the parse, so damaged records degrade to "absent", never to
 *    wrong values;
 *  - writeRecordVec / recordBits / recordDoubles / scalarBits:
 *    writer-side helpers.
 */

#ifndef VPC_SYSTEM_RECORD_IO_HH
#define VPC_SYSTEM_RECORD_IO_HH

#include <bit>
#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <vector>

namespace vpc
{

/** Incremental 64-bit FNV-1a over explicitly enumerated fields. */
class Fnv1a
{
  public:
    void bytes(const void *data, std::size_t n);

    /**
     * Hash @p v as fixed-width little-endian bytes, independent of the
     * host's integer widths and struct padding.
     */
    void u64(std::uint64_t v);

    /** Hash the IEEE-754 bit pattern of @p v. */
    void dbl(double v);

    /** Hash length-prefixed string contents. */
    void str(const std::string &s);

    std::uint64_t value() const { return hash_; }

  private:
    std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/**
 * Strict parser for the flat record subset of JSON: one object whose
 * values are decimal unsigned integers, double-quoted strings (no
 * escapes), or arrays of decimal unsigned integers.
 */
class RecordParser
{
  public:
    explicit RecordParser(std::string text);

    /** @return true iff the whole input is one well-formed record. */
    bool parse();

    bool getInt(const std::string &k, std::uint64_t &out) const;
    bool getString(const std::string &k, std::string &out) const;
    bool getArray(const std::string &k,
                  std::vector<std::uint64_t> &out) const;

  private:
    char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
    bool eat(char c);
    void skipWs();
    bool posAtEnd();
    bool parseString(std::string &out);
    bool parseUint(std::uint64_t &out);
    bool parseArray(std::vector<std::uint64_t> &out);

    std::string s_;
    std::size_t pos_ = 0;
    std::unordered_map<std::string, std::uint64_t> ints_;
    std::unordered_map<std::string, std::string> strings_;
    std::unordered_map<std::string, std::vector<std::uint64_t>> arrays_;
};

/** Append ["k": [v...],] with each element as a decimal uint64. */
void writeRecordVec(std::FILE *f, const char *k,
                    const std::vector<std::uint64_t> &v,
                    bool last = false);

/** @return the IEEE-754 bit patterns of @p v, element-wise. */
std::vector<std::uint64_t> recordBits(const std::vector<double> &v);

/** Inverse of recordBits(). */
std::vector<double> recordDoubles(const std::vector<std::uint64_t> &v);

/**
 * @return one config scalar as a record value: a double's IEEE-754 bit
 *         pattern, anything else (integer, bool, enum) converted
 */
template <typename T>
std::uint64_t
scalarBits(T v)
{
    if constexpr (std::is_same_v<T, double>)
        return std::bit_cast<std::uint64_t>(v);
    else
        return static_cast<std::uint64_t>(v);
}

/**
 * @return true when @p s can travel through the record format as a
 *         string value unchanged (no quotes, backslashes, control
 *         characters — the parser rejects anything needing escapes)
 */
bool recordStringSafe(const std::string &s);

} // namespace vpc

#endif // VPC_SYSTEM_RECORD_IO_HH
