//! Generations: the paper's groups of source data blocks (matrix `B`).

use serde::{Deserialize, Serialize};

use crate::error::RlncError;
use crate::packet::GenerationId;

/// Coding parameters of a generation: `n` blocks of `m` bytes.
///
/// The paper's evaluation uses 40 blocks of 1 KB ([`GenerationConfig::PAPER`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct GenerationConfig {
    blocks: usize,
    block_size: usize,
}

impl GenerationConfig {
    /// The configuration used throughout the paper's evaluation (Sec. 5):
    /// each generation contains 40 data blocks of 1 KB.
    pub const PAPER: GenerationConfig = GenerationConfig {
        blocks: 40,
        block_size: 1024,
    };

    /// Creates a configuration with `blocks` blocks of `block_size` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`RlncError::EmptyGeneration`] if either dimension is zero.
    pub fn new(blocks: usize, block_size: usize) -> Result<Self, RlncError> {
        if blocks == 0 || block_size == 0 {
            return Err(RlncError::EmptyGeneration);
        }
        Ok(GenerationConfig { blocks, block_size })
    }

    /// Number of blocks `n` (rows of the paper's matrix `B`).
    pub fn blocks(&self) -> usize {
        self.blocks
    }

    /// Bytes per block `m` (columns of `B`).
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Total source bytes held by one generation.
    pub fn payload_len(&self) -> usize {
        self.blocks * self.block_size
    }
}

impl Default for GenerationConfig {
    fn default() -> Self {
        GenerationConfig::PAPER
    }
}

/// One generation of source data: the matrix `B` whose rows are the blocks.
///
/// Data shorter than the generation is zero-padded by
/// [`Generation::from_bytes_padded`]; exact-size construction via
/// [`Generation::from_bytes`] rejects mismatches.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Generation {
    id: GenerationId,
    config: GenerationConfig,
    blocks: Vec<Vec<u8>>,
}

impl Generation {
    /// Splits `data` into the generation's blocks.
    ///
    /// # Errors
    ///
    /// Returns [`RlncError::PayloadSizeMismatch`] unless
    /// `data.len() == config.payload_len()`.
    pub fn from_bytes(
        id: GenerationId,
        config: GenerationConfig,
        data: &[u8],
    ) -> Result<Self, RlncError> {
        if data.len() != config.payload_len() {
            return Err(RlncError::PayloadSizeMismatch {
                expected: config.payload_len(),
                actual: data.len(),
            });
        }
        let blocks = data
            .chunks(config.block_size())
            .map(<[u8]>::to_vec)
            .collect();
        Ok(Generation { id, config, blocks })
    }

    /// Like [`Generation::from_bytes`] but zero-pads short data (the usual
    /// case for the last generation of a transfer).
    ///
    /// # Errors
    ///
    /// Returns [`RlncError::PayloadSizeMismatch`] if `data` is *longer* than
    /// the generation.
    pub fn from_bytes_padded(
        id: GenerationId,
        config: GenerationConfig,
        data: &[u8],
    ) -> Result<Self, RlncError> {
        if data.len() > config.payload_len() {
            return Err(RlncError::PayloadSizeMismatch {
                expected: config.payload_len(),
                actual: data.len(),
            });
        }
        let mut padded = data.to_vec();
        padded.resize(config.payload_len(), 0);
        Generation::from_bytes(id, config, &padded)
    }

    /// The generation's identifier.
    pub fn id(&self) -> GenerationId {
        self.id
    }

    /// The coding parameters.
    pub fn config(&self) -> GenerationConfig {
        self.config
    }

    /// The source blocks (rows of `B`).
    pub fn blocks(&self) -> &[Vec<u8>] {
        &self.blocks
    }

    /// Reassembles the generation's source bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.config.payload_len());
        for b in &self.blocks {
            out.extend_from_slice(b);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_dimensions() {
        assert_eq!(GenerationConfig::PAPER.blocks(), 40);
        assert_eq!(GenerationConfig::PAPER.block_size(), 1024);
        assert_eq!(GenerationConfig::PAPER.payload_len(), 40 * 1024);
        assert_eq!(GenerationConfig::default(), GenerationConfig::PAPER);
    }

    #[test]
    fn zero_dimensions_rejected() {
        assert_eq!(
            GenerationConfig::new(0, 10),
            Err(RlncError::EmptyGeneration)
        );
        assert_eq!(
            GenerationConfig::new(10, 0),
            Err(RlncError::EmptyGeneration)
        );
    }

    #[test]
    fn from_bytes_roundtrip() {
        let cfg = GenerationConfig::new(4, 8).unwrap();
        let data: Vec<u8> = (0..32).collect();
        let g = Generation::from_bytes(GenerationId::new(1), cfg, &data).unwrap();
        assert_eq!(g.blocks().len(), 4);
        assert_eq!(g.blocks()[1], (8..16).collect::<Vec<u8>>());
        assert_eq!(g.to_bytes(), data);
    }

    #[test]
    fn exact_size_enforced() {
        let cfg = GenerationConfig::new(4, 8).unwrap();
        let err = Generation::from_bytes(GenerationId::new(0), cfg, &[0; 31]).unwrap_err();
        assert_eq!(
            err,
            RlncError::PayloadSizeMismatch {
                expected: 32,
                actual: 31
            }
        );
    }

    #[test]
    fn padding_fills_with_zeros() {
        let cfg = GenerationConfig::new(2, 4).unwrap();
        let g = Generation::from_bytes_padded(GenerationId::new(0), cfg, &[1, 2, 3]).unwrap();
        assert_eq!(g.to_bytes(), vec![1, 2, 3, 0, 0, 0, 0, 0]);
        assert!(Generation::from_bytes_padded(GenerationId::new(0), cfg, &[0; 9]).is_err());
    }
}
