#ifndef TSDM_NET_HTTP_H_
#define TSDM_NET_HTTP_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/serve/request_queue.h"

namespace tsdm {

/// One parsed HTTP/1.1 request: method, target, headers (names lowercased),
/// and the body (sized by Content-Length; chunked encoding is not
/// supported — the front door's endpoints never need it).
struct HttpRequest {
  std::string method;
  std::string target;
  std::string version;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// Value of the first header named `name` (lowercase), or "" if absent.
  const std::string& Header(const std::string& name) const;
};

/// Incremental HTTP/1.1 request parser for the minimal front-door surface.
/// Bytes are fed chunk by chunk with arbitrary split points (headers may be
/// cut anywhere, including mid-token); complete requests come out one at a
/// time, so pipelined requests on one connection parse in order.
///
/// Hard limits bound hostile input: the request line, the header block, and
/// the body each have a cap, and exceeding one is a terminal parse error
/// (the connection should be answered with the matching status and closed).
///
/// Single-threaded: one parser per connection, driven by its event loop.
class HttpParser {
 public:
  struct Limits {
    size_t max_request_line = 4096;
    size_t max_header_bytes = 8192;
    size_t max_body_bytes = 64 * 1024;
  };

  enum class Result {
    kNeedMore,    ///< no complete request buffered yet
    kRequest,     ///< *out holds a complete request; call again for the next
    kBadRequest,  ///< malformed request line / headers / Content-Length (400)
    kTooLarge,    ///< a limit was exceeded (431 for headers, 413 for body)
  };

  HttpParser() : HttpParser(Limits()) {}
  explicit HttpParser(Limits limits) : limits_(limits) {}

  /// Appends `size` bytes to the connection buffer.
  void Feed(const uint8_t* data, size_t size);

  /// Tries to parse one complete request from the buffer. kRequest fills
  /// *out and consumes the request's bytes (leftover bytes stay buffered
  /// for the next — pipelined — request). kBadRequest / kTooLarge are
  /// terminal: the parser stays in the error state until Reset().
  Result Next(HttpRequest* out);

  /// Clears all buffered bytes and any error state.
  void Reset();

  size_t BufferedBytes() const { return buffer_.size(); }

 private:
  Limits limits_;
  std::string buffer_;
  Result error_ = Result::kNeedMore;  ///< sticky terminal error, if any
};

/// Serializes a minimal HTTP/1.1 response with Content-Length and
/// Connection: keep-alive, appending the bytes to *out.
void WriteHttpResponse(int status_code, const std::string& content_type,
                       const std::string& body, std::vector<uint8_t>* out);

/// Standard reason phrase for the handful of codes the front door emits.
const char* HttpReasonPhrase(int status_code);

/// Extracts a top-level numeric field from a flat JSON object, e.g.
/// ExtractJsonNumber("{\"source\": 3}", "source", &v). Good enough for the
/// POST /query body — nested objects and string escapes inside values are
/// out of scope by design. Returns false when the key is absent or its
/// value is not a number.
bool ExtractJsonNumber(const std::string& json, const std::string& key,
                       double* out);

/// String sibling of ExtractJsonNumber: extracts a top-level string field
/// ("tenant" in the POST /query body). Handles \" and \\ escapes inside
/// the value; same flat-object scope. Returns false when the key is absent
/// or its value is not a string.
bool ExtractJsonString(const std::string& json, const std::string& key,
                       std::string* out);

/// Decodes a POST /query body, the HTTP sibling of DecodeRouteQueryPayload:
/// numeric "source" and "target" are required; "k", "depart_seconds",
/// "arrival_deadline_seconds", "priority", "tenant" and "request_id" are
/// optional and keep their defaults when absent; other keys are ignored.
/// InvalidArgument when a required field is missing, or when an integer
/// field holds a number that is not integral or out of range for its type.
Status DecodeHttpRouteQuery(const std::string& body, RouteQuery* out,
                            int* priority, std::string* tenant,
                            uint64_t* request_id);

/// Splits a request target at the first '?' into the path and the query
/// string ("/debug/traces?n=5" -> path "/debug/traces", query "n=5"; no
/// '?' leaves query empty). The path is what endpoint routing matches on.
void SplitTarget(const std::string& target, std::string* path,
                 std::string* query);

/// Outcome of looking one key up in a URL query string. kBad covers every
/// hostile shape — missing value ("n"/"n="), non-numeric ("n=abc"),
/// trailing junk ("n=5x"), overflow — so an endpoint maps it straight to a
/// typed 400 instead of guessing.
enum class QueryParamResult {
  kOk,      ///< key present and parsed; *out is set
  kAbsent,  ///< key not in the query string (apply the endpoint default)
  kBad,     ///< key present but its value is not a valid uint64
};

/// Looks `key` up in a query string of the form "a=1&b=2" and parses its
/// value as an unsigned decimal integer. First occurrence wins. No
/// percent-decoding — the front door's parameters are plain integers.
QueryParamResult ParseQueryParamU64(const std::string& query,
                                    const std::string& key, uint64_t* out);

}  // namespace tsdm

#endif  // TSDM_NET_HTTP_H_
