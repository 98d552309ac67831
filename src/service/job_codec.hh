/**
 * @file
 * Serialization of RunJob to the flat on-disk record format.
 *
 * A spooled job file is the *complete* content identity of a run —
 * exactly the inputs runDigest() hashes: the normalized SystemConfig,
 * the per-thread workload keys and the warmup/measure lengths.  The
 * encoder embeds the job digest; the decoder re-derives it from the
 * decoded fields and rejects the record on mismatch, so any skew
 * between encoder, decoder and digest (a new config field added to
 * one but not the others) fails loudly as a decode error instead of
 * silently executing a different job than the client submitted.
 *
 * The format reuses record_io: one flat JSON object of unsigned
 * integers, strings and integer arrays, doubles as IEEE-754 bit
 * patterns.  `config.profile` is intentionally not encoded: it is
 * observe-only, excluded from the digest, and a daemon never returns
 * profiles (results come back through the run cache).
 */

#ifndef VPC_SERVICE_JOB_CODEC_HH
#define VPC_SERVICE_JOB_CODEC_HH

#include <string>

#include "system/run_cache.hh"

namespace vpc
{

/** Bump when the encoded field set changes. */
constexpr std::uint64_t kJobCodecSchema = 3;

/**
 * @return the job file text for @p job (validate() is applied first,
 *         so encode(decode(x)) is byte-stable)
 */
std::string encodeJob(const RunJob &job);

/**
 * Parse @p text into @p out.
 *
 * @return false on any malformation: truncated/corrupt record, schema
 *         mismatch, missing or excess config fields, a workload spec
 *         that cannot travel as a record string, or an embedded digest
 *         that does not match the decoded job's runDigest()
 */
bool decodeJob(const std::string &text, RunJob &out);

} // namespace vpc

#endif // VPC_SERVICE_JOB_CODEC_HH
