CREATE TABLE hot AS SELECT rid, value FROM readings WHERE PROB(value > 15) >= 0.5;
SELECT COUNT(*) FROM hot WHERE PROB(*) >= 0.999;
-- A materialised floor joined back to its base: the two values agree through their shared ancestor.
CREATE TABLE twos AS SELECT rid, value FROM readings WHERE rid = 3 AND value >= 2;
SELECT t.rid, t.value, r.value FROM twos t, readings r WHERE t.rid = r.rid AND t.value <= r.value;
DROP TABLE twos;
-- A materialised range selection stores the GAUSSIAN row's floor (its allowed interval set) and reads it back.
CREATE TABLE warm AS SELECT rid, value FROM readings WHERE value > 15;
SELECT rid, value FROM warm;
