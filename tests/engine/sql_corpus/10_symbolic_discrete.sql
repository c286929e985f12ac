-- The paper's symbolic discrete families: Poisson, Bernoulli, Binomial.
CREATE TABLE counts (cid INT, faults REAL UNCERTAIN, ok REAL UNCERTAIN, hits REAL UNCERTAIN);
INSERT INTO counts VALUES (1, POISSON(4), BERNOULLI(0.9), BINOMIAL(10, 0.3));
INSERT INTO counts VALUES (2, POISSON(0.5), BERNOULLI(1), BINOMIAL(3, 0.5)), (3, POISSON(12), BERNOULLI(0.2), BINOMIAL(20, 0.05));
SELECT cid FROM counts WHERE PROB(faults >= 0) >= 1;
SELECT cid FROM counts WHERE PROB(*) >= 1;
SELECT cid FROM counts WHERE PROB(faults < 2 AND ok = 1) > 0.3;
SELECT cid, MEAN(faults), VARIANCE(hits) FROM counts;
SELECT cid, faults FROM counts WHERE faults < 2;
CREATE TABLE few AS SELECT cid, faults FROM counts WHERE faults < 2;
SELECT cid, MASS(faults) FROM few WHERE PROB(*) >= 0.5;
SELECT COUNT(*) FROM counts WHERE faults < 2;
SELECT SUM(hits) FROM counts;
CREATE PROB INDEX ON counts (faults);
SELECT cid FROM counts WHERE PROB(faults > 3) >= 0.5;
