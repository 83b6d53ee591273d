#include "embed/context_encoder.h"

#include <cmath>

namespace rlbench::embed {

ContextEncoder::ContextEncoder(size_t dim, uint64_t seed,
                               uint64_t variant_salt,
                               const text::TfIdfModel* tfidf)
    : static_(dim, seed ^ variant_salt), tfidf_(tfidf) {}

const Vec& ContextEncoder::StaticVector(const std::string& token) {
  auto it = static_memo_.find(token);
  if (it == static_memo_.end()) {
    it = static_memo_.emplace(token, static_.EmbedToken(token)).first;
  }
  return it->second;
}

std::vector<Vec> ContextEncoder::EncodeTokens(
    const std::vector<std::string>& tokens) {
  // Memo entries are never erased and unordered_map nodes never move, so
  // the pointers stay valid for the whole call.
  std::vector<const Vec*> base;
  base.reserve(tokens.size());
  std::vector<double> idf(tokens.size(), 1.0);
  for (size_t i = 0; i < tokens.size(); ++i) {
    base.push_back(&StaticVector(tokens[i]));
    if (tfidf_ != nullptr) idf[i] = tfidf_->Idf(tokens[i]);
  }

  // One attention pass: each token attends over all tokens; attention
  // logits are cosine affinity scaled by the key token's IDF salience.
  std::vector<Vec> mixed(base.size());
  for (size_t i = 0; i < base.size(); ++i) {
    std::vector<double> weights(base.size());
    double max_logit = -1e30;
    for (size_t j = 0; j < base.size(); ++j) {
      double logit = Dot(*base[i], *base[j]) * idf[j];
      weights[j] = logit;
      if (logit > max_logit) max_logit = logit;
    }
    double denom = 0.0;
    for (double& w : weights) {
      w = std::exp(w - max_logit);
      denom += w;
    }
    Vec context(static_.dim(), 0.0F);
    for (size_t j = 0; j < base.size(); ++j) {
      AxpyInPlace(&context, static_cast<float>(weights[j] / denom), *base[j]);
    }
    Vec out = *base[i];
    ScaleInPlace(&out, static_cast<float>(1.0 - mixing_));
    AxpyInPlace(&out, static_cast<float>(mixing_), context);
    L2NormalizeInPlace(&out);
    mixed[i] = std::move(out);
  }
  return mixed;
}

Vec ContextEncoder::EncodeSequence(const std::vector<std::string>& tokens) {
  Vec pooled(static_.dim(), 0.0F);
  if (tokens.empty()) return pooled;
  auto vecs = EncodeTokens(tokens);
  double total_weight = 0.0;
  for (size_t i = 0; i < vecs.size(); ++i) {
    double w = tfidf_ != nullptr ? tfidf_->Idf(tokens[i]) : 1.0;
    AxpyInPlace(&pooled, static_cast<float>(w), vecs[i]);
    total_weight += w;
  }
  if (total_weight <= 1e-12) {
    // No salience information (e.g. empty corpus): plain mean pooling.
    pooled.assign(static_.dim(), 0.0F);
    for (const auto& vec : vecs) AddInPlace(&pooled, vec);
    total_weight = static_cast<double>(vecs.size());
  }
  if (total_weight > 0.0) {
    ScaleInPlace(&pooled, static_cast<float>(1.0 / total_weight));
  }
  L2NormalizeInPlace(&pooled);
  return pooled;
}

}  // namespace rlbench::embed
